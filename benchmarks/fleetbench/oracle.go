package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/wal"
)

// churnProbe queries are compared after mixed_churn quiesces.
const churnProbe = 256

// oracle is the reference the fleet's answers are checked against: one
// social.Service over the same corpus with the seeker cache off, so
// every answer comes from a fresh expansion of the exact algorithm. It
// encodes answers with the server's own response types, which makes the
// comparison byte for byte.
type oracle struct {
	svc *social.Service
}

func newOracle(c *corpus) (*oracle, error) {
	svc, err := c.newService(-1, replicaCompactEvery)
	if err != nil {
		return nil, fmt.Errorf("restoring oracle: %w", err)
	}
	return &oracle{svc: svc}, nil
}

// single returns the /v2/search reply the fleet must give for q.
func (o *oracle) single(q query) ([]byte, error) {
	resp, err := o.svc.Do(context.Background(), q.request())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	// json.Encoder, like the server, ends the reply with a newline.
	err = json.NewEncoder(&buf).Encode(server.V2SearchResponse{Results: resp.Results})
	return buf.Bytes(), err
}

// batchEntry returns the /v2/search/batch entry the fleet must give
// for q.
func (o *oracle) batchEntry(q query) ([]byte, error) {
	resp, err := o.svc.Do(context.Background(), q.request())
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.V2BatchEntry{Results: resp.Results})
}

// checkKept compares every reply the loop retained with the oracle and
// returns the indexes of the ops that answered wrongly.
func (o *oracle) checkKept(ops []op, res *loopResult) ([]int, error) {
	var wrong []int
	for i, got := range res.kept {
		if got == nil {
			continue
		}
		var want []byte
		var err error
		if ops[i].kind == opBatch {
			want, err = o.batchEntry(ops[i].queries[0])
		} else {
			want, err = o.single(ops[i].queries[0])
		}
		if err != nil {
			return nil, fmt.Errorf("oracle on op %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			wrong = append(wrong, i)
		}
	}
	return wrong, nil
}

// fold applies the front-end's replication log to the oracle, record
// by record, and compacts: the state every replica must now hold.
func (o *oracle) fold(st *stack) error {
	_, err := st.replog.ReadFrom(1, func(rec wal.Record) error {
		switch rec.Type {
		case durable.RecBefriend:
			a, b, w, err := durable.DecodeBefriend(rec.Data)
			if err != nil {
				return err
			}
			return o.svc.Befriend(a, b, w)
		case durable.RecTag:
			u, i, t, err := durable.DecodeTag(rec.Data)
			if err != nil {
				return err
			}
			return o.svc.Tag(u, i, t)
		}
		return fmt.Errorf("replog record %d has unexpected type %d", rec.LSN, rec.Type)
	})
	if err != nil {
		return fmt.Errorf("folding replog into oracle: %w", err)
	}
	return o.svc.Flush()
}

// probe sends the first churnProbe read queries of ops through the
// quiesced front-end and returns how many replies differ from the
// oracle's.
func (o *oracle) probe(st *stack, hc *http.Client, ops []op) (asked, wrong int, err error) {
	var buf bytes.Buffer
	for i := range ops {
		if ops[i].kind != opRead {
			continue
		}
		if asked == churnProbe {
			break
		}
		asked++
		want, err := o.single(ops[i].queries[0])
		if err != nil {
			return asked, wrong, fmt.Errorf("oracle on probe %d: %w", i, err)
		}
		if !post(hc, st.frontURL+opRead.path(), ops[i].body, &buf) || !bytes.Equal(buf.Bytes(), want) {
			wrong++
		}
	}
	return asked, wrong, nil
}
