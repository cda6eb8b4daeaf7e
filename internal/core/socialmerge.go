package core

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// SocialMerge answers the query with the paper's incremental
// network-aware algorithm. It maintains:
//
//   - a best-first frontier over the social graph yielding users in
//     non-increasing proximity order with a certified bound σnext on all
//     unvisited users;
//   - per-candidate NRA intervals: lower(i) = mass already confirmed;
//     upper(i) = lower(i) + β·σnext·rem(i), where rem(i) is the tag
//     frequency mass of i not yet seen from settled users
//     (rem(i) = Σ_t gtf(i,t) − Σ_t seen_tf(i,t), never negative);
//   - per-query-tag cursors into the global posting lists whose frontier
//     frequencies bar(t) bound every completely unseen item by
//     (β·σnext + (1−β))·Σ_t bar(t).
//
// The loop settles one user at a time (consuming their per-tag posting
// lists and completing each newly seen item's global score by random
// access) and stops as soon as the k-th best confirmed lower bound
// dominates both the best non-top-k candidate upper bound and the
// unseen-item bound. At that point the returned item set is provably the
// exact top-k set; reported scores are the certified lower bounds (equal
// to exact scores whenever the remaining uncertainty is zero, e.g. when
// the frontier was exhausted).
//
// Options activate the approximate variants; any triggered cutoff or
// prune clears Answer.Exact.
func (e *Engine) SocialMerge(q Query, opts Options) (Answer, error) {
	var ans Answer
	if err := e.SocialMergeInto(q, opts, &ans); err != nil {
		return Answer{}, err
	}
	return ans, nil
}

// SocialMergeInto is SocialMerge writing into a caller-owned Answer:
// ans.Results is reused (truncated and appended to), so a caller that
// recycles the Answer across queries runs the whole read path without
// allocating. This is the single validation point for graph-expansion
// execution — the internal merge entry assumes a validated query.
func (e *Engine) SocialMergeInto(q Query, opts Options, ans *Answer) error {
	if opts.LandmarkPrune && e.landmarks == nil {
		return errNoLandmarks
	}
	if opts.UseNeighborhoods && e.neighbors == nil {
		return errNoNeighborhoods
	}
	if opts.UseNeighborhoods && opts.RefineScores {
		// Refinement drains the source; a neighbourhood list that ends
		// short of the horizon would leave a residual the β = 1 refine
		// run has no remainders to certify against.
		return errUnsupportedOption
	}
	if err := e.validateQuery(q); err != nil {
		return err
	}
	src, err := e.newUserSource(q.Seeker, opts)
	if err != nil {
		return err
	}
	defer releaseSource(src)
	return e.socialMergeRun(q, src, nil, opts, ans)
}

// socialMergeRun runs the merge loop over an explicit user source (a
// live graph expansion, a global neighbourhood index entry, or — when h
// is non-nil — a cached per-seeker horizon adapted through the pooled
// run's inline source, avoiding a per-query adapter allocation). The
// query must already be validated: each external entry point validates
// exactly once.
func (e *Engine) socialMergeRun(q Query, src userSource, h *SeekerHorizon, opts Options, ans *Answer) error {
	run := runPool.Get().(*mergeRun)
	defer releaseRun(run)
	return run.merge(e, q, src, h, opts, ans)
}

// merge is socialMergeRun on a given run: it resets the run for the
// query, picks the path and writes the answer.
func (r *mergeRun) merge(e *Engine, q Query, src userSource, h *SeekerHorizon, opts Options, ans *Answer) error {
	r.reset(e, q, opts)
	// Nothing can stop this merge short of the horizon's last user.
	join := h != nil && opts.RefineScores && opts.Theta == 0 && opts.MaxHops == 0 && opts.MaxUsers == 0
	universe := e.store.NumItems()
	if join && r.refineFast {
		// sweepDense Offers each touched item's final score: no
		// candidate is ever looked up by item, and nothing is left for
		// finish to select.
		universe = 0
		r.selectAtFinish = false
	}
	r.table.Reset(universe, q.K)
	var certified bool
	var err error
	switch {
	case join:
		certified, err = r.joinHorizon(h, opts)
	case h != nil:
		r.msrc = materializedSource{list: h.list}
		certified, err = r.mainLoop(&r.msrc, q.Seeker, opts)
	default:
		certified, err = r.mainLoop(src, q.Seeker, opts)
	}
	if err != nil {
		return err
	}

	// Certified termination with approximation knobs enabled is still
	// exact as long as no cutoff or prune actually fired.
	ans.Results = r.table.AppendTopResults(ans.Results[:0])
	ans.Exact = certified && !r.cutoffFired && !r.prunedAny
	ans.Access = r.acc
	ans.UsersSettled = r.settled
	return nil
}

// mergeRun is the per-query working state of SocialMerge: the candidate
// table with its top-k, the per-tag cursors, and the access
// accounting. Runs are recycled through runPool so the warm
// read path performs no allocation; everything here is either reset or
// overwritten by reset and merge.
type mergeRun struct {
	e    *Engine
	k    int
	beta float64
	tags []tagstore.TagID // deduped query tags (reused buffer)

	table topk.Table // candidates + top-k/τ

	lists []globalCursor // global list cursor per query tag

	acc         topk.Access
	settled     int
	cutoffFired bool
	prunedAny   bool

	// refineFast marks the β = 1 exact-refine execution: the (1−β)
	// global component is identically zero and every source it drains is
	// complete, so nothing is left to certify — candidate creation skips
	// the per-tag global random accesses and the sorted-access rounds.
	refineFast bool

	// selectAtFinish marks a RefineScores run before finish: it settles
	// every user its source yields and tests τ nowhere on the way, so
	// raised lower bounds are not promoted and finish builds the top k
	// once (topk.Table.Select). finish clears it, after which the β < 1
	// sorted-access rounds promote incrementally again. The β = 1 join
	// never sets it: sweepDense offers final scores to the table.
	selectAtFinish bool

	// Amortized certification: the O(|candidates|) canStop test runs
	// only when the frontier bound has decayed materially since the
	// last test (or periodically), since the bounds it evaluates are
	// monotone in that bound.
	lastCheckBound float64
	sinceLastCheck int
	// cachedTau is the threshold as of the most recent canStop. The
	// incremental τ only grows, so it is a valid (conservative) stand-in
	// wherever a stale-but-sound threshold suffices, e.g. the landmark
	// prune test.
	cachedTau float64

	// msrc is the inline horizon adapter used by socialMergeRun.
	msrc materializedSource

	// Scratch of joinHorizon. rank[u] is 1 + the horizon position of
	// user u, 0 for everyone outside; it is all zero between queries.
	// blocks holds the query tags' blocks, in query tag order. found
	// holds the list pass's finds, one per (user, query tag) list in the
	// horizon, in block order, and bounds[b] how many of them lie in
	// blocks 0..b. list is the lists sorted by rank, and count the
	// counting sort's counter for each rank 0..|horizon|, all zero
	// between queries.
	rank   []int32
	blocks []tagstore.Block
	found  []tagUser
	bounds []int32
	list   []listRec
	count  []int32

	// Scratch of sweepDense, indexed by item: score[i] is item i's
	// social score so far and bit i of seen marks an item some posting
	// touched. Both are all zero between queries.
	score []float64
	seen  []uint64
}

// listRec locates the posting list of the horizon user of rank rank
// under one query tag: n postings from off in the postings of
// blocks[block].
type listRec struct{ rank, block, off, n int32 }

// tagUser is a user the list pass found in a block: its rank mark and
// its position among the block's users.
type tagUser struct{ rank, pos int32 }

// runPool recycles SocialMerge working state (candidate table, cursor
// slices, tag buffers, the join's rank, find, list and per-item score
// arrays) so the warm read path allocates nothing. It is the package's,
// not an engine's: every compaction builds a new Engine, and the first
// merges on it reuse the arrays the last engine's merges grew instead
// of allocating their own.
var runPool = sync.Pool{New: func() any { return new(mergeRun) }}

// reset prepares a recycled run for the query. All retained storage
// (tag buffer, cursor slices, the candidate table's arrays) is reused;
// what is sized by the universe grows to this engine's when a path
// first needs it. The candidate table is reset by merge, which knows
// whether the path looks candidates up by item.
func (r *mergeRun) reset(e *Engine, q Query, opts Options) {
	r.e = e
	r.k = q.K
	r.beta = e.beta
	// Dedup tags preserving first-occurrence order. Query tag sets are
	// tiny, so the quadratic scan beats a map and allocates nothing.
	r.tags = r.tags[:0]
	for _, t := range q.Tags {
		dup := false
		for _, u := range r.tags {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			r.tags = append(r.tags, t)
		}
	}
	if cap(r.lists) < len(r.tags) {
		r.lists = make([]globalCursor, len(r.tags))
	}
	r.lists = r.lists[:len(r.tags)]
	for i, t := range r.tags {
		r.lists[i] = e.globalCursor(t)
	}
	r.acc = topk.Access{}
	r.settled = 0
	r.cutoffFired = false
	r.prunedAny = false
	r.refineFast = opts.RefineScores && r.beta == 1
	r.selectAtFinish = opts.RefineScores
	r.lastCheckBound = 0
	r.sinceLastCheck = 0
	r.cachedTau = 0
}

// releaseRun returns a run to the pool holding no reference into the
// engine's snapshot: a pooled run must not keep a superseded engine, its
// store or its posting lists reachable.
func releaseRun(r *mergeRun) {
	r.e = nil
	clear(r.lists)
	clear(r.blocks)
	r.msrc = materializedSource{}
	runPool.Put(r)
}

// barSum returns Σ_t bar(t): the sum over query tags of the frequency at
// the current global-list cursor (0 for exhausted lists). Any item never
// seen in list t has gtf(i,t) ≤ bar(t).
func (r *mergeRun) barSum() float64 {
	var sum float64
	for i := range r.lists {
		if !r.lists[i].done() {
			sum += float64(r.lists[i].head().TF)
		}
	}
	return sum
}

// advanceCursors performs one round of sorted access on every non-
// exhausted global list, discovering candidates. It reports whether any
// cursor moved.
func (r *mergeRun) advanceCursors() bool {
	moved := false
	for i := range r.lists {
		if r.lists[i].done() {
			continue
		}
		p := r.lists[i].next()
		r.acc.Sequential++
		moved = true
		r.ensureCandidate(p.Item)
	}
	return moved
}

// ensureCandidate returns the table index for an item, creating the
// candidate on first sight: the creation random-accesses the item's
// global frequency under every query tag, initializing rem and the
// exact (1−β)-weighted global score part. The β = 1 fast path skips
// that work (see refineFast).
func (r *mergeRun) ensureCandidate(item tagstore.ItemID) int32 {
	idx, created := r.table.Ensure(item)
	if !created || r.refineFast {
		return idx
	}
	var gsum int64
	for _, t := range r.tags {
		g := r.e.store.GlobalTF(item, t)
		r.acc.Random++
		gsum += int64(g)
	}
	c := r.table.At(idx)
	c.Rem = gsum
	c.Lower = (1 - r.beta) * float64(gsum)
	if c.Lower > 0 && !r.selectAtFinish {
		r.table.Promote(idx)
	}
	return idx
}

// settleUser consumes the per-tag posting lists of user v at proximity σ.
func (r *mergeRun) settleUser(v int32, sigma float64) {
	if r.beta != 0 { // pure-global scoring: user lists contribute nothing
		for _, t := range r.tags {
			r.settleList(r.e.store.UserList(v, t), sigma)
		}
	}
	r.userSettled()
}

// userSettled closes the settle of one user, whichever way its lists
// were found: the accounting, then one round of sorted access, which
// discovers globally hot candidates early and walks the unseen-item bar
// down the Zipf tail — that is what lets the unseen bound release. The
// β = 1 refine path skips the round: it terminates by exhaustion, not
// by the bound, and a zero-σ certification needs no bar.
func (r *mergeRun) userSettled() {
	r.settled++
	r.acc.UsersExpanded++
	if !r.refineFast {
		r.advanceCursors()
	}
}

// settleList consumes one (user, tag) posting list at proximity σ.
func (r *mergeRun) settleList(list []tagstore.UserPosting, sigma float64) {
	for _, up := range list {
		r.acc.Sequential++
		idx := r.ensureCandidate(up.Item)
		c := r.table.At(idx)
		c.Lower += r.beta * sigma * float64(up.TF)
		c.Rem -= int64(up.TF)
		// σ, β and tf are all positive here, so Lower > 0 and the
		// candidate is promotable.
		if !r.selectAtFinish {
			r.table.Promote(idx)
		}
	}
}

// joinHorizon is mainLoop for a merge that settles every user of a
// materialized horizon: same users, same tag order within a user, same
// posting order within a list, so every candidate's bounds go through
// the arithmetic mainLoop would put them through and the accounting
// comes out equal. What differs is how a user's lists are found. The
// store keeps a tag's lists back to back in blocks of consecutive
// users, so one pass over each query tag's blocks, in query order,
// meets every list the sweep needs. The pass writes a find for every
// tag user against the horizon's rank marks and advances past it only
// when the rank is not 0 — about one tag user in six is in the
// horizon, a branch no predictor learns — so the users outside all
// land in the one slot past the end and the finds in the horizon lie
// back to back. A stable counting sort by rank then puts their lists
// in (rank, query tag) order, and the sweep reads them in turn, where
// settleUser searches every (user, tag) pair and mostly finds nothing.
// The join polls its context once per 64 horizon users while it marks
// ranks, and once per 64 ranks its sweep reaches.
func (r *mergeRun) joinHorizon(h *SeekerHorizon, opts Options) (bool, error) {
	st, tags := r.e.store, r.tags
	if r.beta == 0 {
		tags = nil // as in settleUser
	}
	if len(r.rank) < st.NumUsers() {
		r.rank = make([]int32, st.NumUsers())
	}
	// Tag t holds at most min(|users(t)|, |horizon|) in-horizon lists.
	most := 0
	r.blocks = r.blocks[:0]
	for _, t := range tags {
		blocks, users := st.TagBlocks(t), 0
		for i := range blocks {
			u, _, _ := blocks[i].Lists()
			users += len(u)
		}
		r.blocks = append(r.blocks, blocks...)
		most += min(users, len(h.list))
	}
	if len(r.found) < most+1 {
		r.found = make([]tagUser, most+1)
	}
	if len(r.bounds) < len(r.blocks) {
		r.bounds = make([]int32, len(r.blocks))
	}
	if len(r.count) < len(h.list)+1 {
		r.count = make([]int32, len(h.list)+1)
	}
	rank := r.rank
	for lo := 0; lo < len(h.list); lo += 64 {
		if err := ctxErr(opts.Ctx); err != nil {
			for _, entry := range h.list[:lo] {
				rank[entry.User] = 0
			}
			return false, err
		}
		for k, entry := range h.list[lo:min(lo+64, len(h.list))] {
			rank[entry.User] = int32(lo+k) + 1
		}
	}
	bounds := r.bounds[:len(r.blocks)]
	m := r.listPass(r.found[:most+1], bounds)
	for _, entry := range h.list {
		rank[entry.User] = 0
	}
	if len(r.list) < m {
		r.list = make([]listRec, m)
	}
	list := r.sortByRank(r.found[:m], bounds, r.list[:m], r.count[:len(h.list)+1])
	if r.refineFast {
		if err := r.sweepDense(h, list, opts); err != nil {
			return false, err
		}
		return r.finish(0, opts)
	}
	j := 0
	for k, entry := range h.list {
		if k%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
		}
		for ; j < len(list) && list[j].rank == int32(k)+1; j++ {
			rec := list[j]
			r.settleList(r.postings(rec), entry.Prox)
		}
		r.userSettled()
	}
	return r.finish(0, opts)
}

// listPass writes into found a find for every user of the run's blocks
// and returns how many of them have a rank mark, whose finds it leaves
// back to back at the front, block by block; bounds[b] is how many lie
// in blocks 0..b. found has room for them and one more: where an
// outside user's find lands.
func (r *mergeRun) listPass(found []tagUser, bounds []int32) int {
	m := 0
	for b := range r.blocks {
		users, _, _ := r.blocks[b].Lists()
		m = findUsers(found, m, r.rank, users)
		bounds[b] = int32(m)
	}
	return m
}

// findUsers is listPass over one block's users, its finds written from
// found[m] on. It is kept out of line: inlined into listPass's loops,
// the compiler keeps its loop counter on the stack, and every user then
// waits on a store and a load of it.
//
//go:noinline
func findUsers(found []tagUser, m int, rank, users []int32) int {
	for p, u := range users {
		rk := rank[u]
		found[m] = tagUser{rank: rk, pos: int32(p)}
		m += int(uint32(-rk) >> 31)
	}
	return m
}

// sortByRank writes the lists of found, whose blocks bounds marks as
// listPass left them, into list in rank order, and within a rank in the
// order found holds them, and returns list. count has a counter for
// every rank of found and is left all zero.
func (r *mergeRun) sortByRank(found []tagUser, bounds []int32, list []listRec, count []int32) []listRec {
	for _, f := range found {
		count[f.rank]++
	}
	at := int32(0)
	for k, n := range count {
		count[k] = at
		at += n
	}
	i := 0
	for b, to := range bounds {
		_, end, _ := r.blocks[b].Lists()
		for _, f := range found[i:to] {
			off := int32(0)
			if f.pos > 0 {
				off = end[f.pos-1]
			}
			list[count[f.rank]] = listRec{rank: f.rank, block: int32(b), off: off, n: end[f.pos] - off}
			count[f.rank]++
		}
		i = int(to)
	}
	clear(count)
	return list
}

// postings returns the posting list rec locates.
func (r *mergeRun) postings(rec listRec) []tagstore.UserPosting {
	_, _, post := r.blocks[rec.block].Lists()
	return post[rec.off : rec.off+rec.n]
}

// sweepDense is joinHorizon's sweep for β = 1 exact refine, where a
// candidate is only ever raised and nothing reads the table before
// finish. Each posting adds β·σ·tf into score[item] instead of reaching
// its candidate through the table's stamp and slot arrays; then one
// walk of the seen bitmap offers each touched item's final score to the
// table, which keeps only the top k. Every item receives the addends
// settleList would have given its candidate, in the same order (rank,
// query tag, list position) and from the same 0, so each score comes
// out bit-identical, and the top k under (score desc, item asc) is
// unique whichever touched items became candidates on the way.
func (r *mergeRun) sweepDense(h *SeekerHorizon, list []listRec, opts Options) error {
	n := r.e.store.NumItems()
	if len(r.score) < n {
		r.score = make([]float64, n)
		r.seen = make([]uint64, (n+63)/64)
	}
	score, seen := r.score, r.seen
	stride := int32(-1) // the 64-rank stride of the last record swept
	for _, rec := range list {
		if (rec.rank-1)>>6 != stride {
			stride = (rec.rank - 1) >> 6
			if err := ctxErr(opts.Ctx); err != nil {
				clear(score)
				clear(seen)
				return err
			}
		}
		w := r.beta * h.list[rec.rank-1].Prox
		postings := r.postings(rec)
		r.acc.Sequential += int64(len(postings))
		for _, up := range postings {
			score[up.Item] += w * float64(up.TF)
			seen[up.Item>>6] |= 1 << (up.Item & 63)
		}
	}
	// userSettled for every horizon user at once: the β = 1 refine run
	// takes no sorted-access round.
	r.settled += len(h.list)
	r.acc.UsersExpanded += int64(len(h.list))
	// The walk goes up in item order, so an item never wins a tie
	// against one the table holds: it can enter only while fewer than k
	// are held (τ reads 0) or with a score strictly above τ, and the
	// rest skip Offer.
	tau := 0.0
	for b, word := range seen[:(n+63)/64] {
		if word == 0 {
			continue
		}
		seen[b] = 0
		for ; word != 0; word &= word - 1 {
			item := int32(b<<6 | bits.TrailingZeros64(word))
			s := score[item]
			score[item] = 0
			if s > tau {
				r.table.Offer(item, s)
				tau = r.table.Tau()
			}
		}
	}
	return nil
}

const certEps = 1e-12

// canStop reports whether, given the frontier bound σnext, the current
// top-k set is certified exact: its threshold dominates every other
// candidate's upper bound and the bound on completely unseen items. τ
// and the member set are maintained incrementally by the table, so the
// test is one contiguous scan with no rebuild and no allocation.
func (r *mergeRun) canStop(sigmaNext float64) bool {
	tau := r.table.Tau()
	r.cachedTau = tau
	unseen := (r.beta*sigmaNext + (1 - r.beta)) * r.barSum()
	if tau < unseen-certEps {
		return false
	}
	all := r.table.All()
	for i := range all {
		c := &all[i]
		if c.InTopK() {
			continue
		}
		upper := c.Lower + r.beta*sigmaNext*float64(c.Rem)
		if tau < upper-certEps {
			return false
		}
	}
	return true
}

// shouldCheck gates the full certification test: it fires when the
// frontier bound fell by ≥10% since the last test, periodically as a
// backstop, and always at a zero bound. Skipping a test can only delay
// termination, never produce an unsound stop.
func (r *mergeRun) shouldCheck(sigmaNext float64) bool {
	r.sinceLastCheck++
	if sigmaNext == 0 || sigmaNext <= 0.9*r.lastCheckBound || r.sinceLastCheck >= 32 {
		r.lastCheckBound = sigmaNext
		r.sinceLastCheck = 0
		return true
	}
	return false
}

// mainLoop drives the merge until certified termination, an
// approximation cutoff, source exhaustion, or context cancellation. It
// reports whether the final state is certified (canStop held at exit).
func (r *mergeRun) mainLoop(src userSource, seeker graph.UserID, opts Options) (bool, error) {
	r.lastCheckBound = 1
	for iter := 0; ; iter++ {
		// Poll the context sparsely (first iteration, then every 64): a
		// select per settled user would tax the hottest serving loop for
		// no added responsiveness.
		if iter%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
		}
		sigmaNext := src.Bound()
		if !opts.RefineScores && r.shouldCheck(sigmaNext) && r.canStop(sigmaNext) {
			return true, nil
		}
		entry, ok := src.Next()
		if !ok {
			break
		}
		if opts.Theta > 0 && entry.Prox < opts.Theta {
			r.cutoffFired = true
			break
		}
		if opts.MaxHops > 0 && int(entry.Hops) > opts.MaxHops {
			r.cutoffFired = true
			break
		}
		if opts.LandmarkPrune && entry.User != seeker {
			// Use the cached (stale, hence smaller, hence conservative)
			// threshold: recomputing it per user would cost O(|candidates|)
			// on every settle and defeat the prune's purpose.
			est := r.e.landmarks.UpperBoundHeuristic(seeker, entry.User)
			if r.cachedTau > 0 && r.beta*est*r.barSum() < r.cachedTau {
				r.prunedAny = true
				continue
			}
		}
		r.settleUser(entry.User, entry.Prox)
		if opts.MaxUsers > 0 && r.settled >= opts.MaxUsers {
			r.cutoffFired = true
			break
		}
	}
	return r.finish(src.Bound(), opts)
}

// finish ends a merge whose source is exhausted or cut off. residual
// still bounds the proximity of all unvisited users (0 for a fully
// drained graph frontier). It reports whether the final state is
// certified.
func (r *mergeRun) finish(residual float64, opts Options) (bool, error) {
	if r.selectAtFinish {
		r.table.Select()
		r.selectAtFinish = false
	}
	if r.refineFast {
		// β = 1 exact refine drains a complete source (a neighbourhood
		// list is rejected up front), so the residual is 0 unless a
		// cutoff fired, and the stop test holds vacuously: the unseen
		// bound and every remainder term carry a σ·β factor of zero.
		return true, nil
	}
	if residual > 0 && !r.cutoffFired {
		// A neighbourhood list (Options.UseNeighborhoods) ran out with
		// users possibly remaining beyond it. Attempt one certification
		// with the residual bound; if it fails, the answer is inherently
		// approximate — draining the global lists cannot shrink the
		// residual term, so treat it as a cutoff rather than scanning
		// everything for nothing.
		if r.canStop(residual) {
			return true, nil
		}
		r.cutoffFired = true
	}
	if r.cutoffFired {
		// The approximation pretends unvisited users do not exist.
		residual = 0
	}
	// Keep scanning the global lists: every round grows confirmed lower
	// bounds (for β < 1) and shrinks the unseen bar. Check termination
	// periodically; the final check decides certification.
	for i := 0; ; i++ {
		if i%8 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
			if r.canStop(residual) {
				return true, nil
			}
		}
		if !r.advanceCursors() {
			return r.canStop(residual), nil
		}
	}
}
