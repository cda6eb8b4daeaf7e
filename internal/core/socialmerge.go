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
	run := e.acquireRun(q, opts)
	defer releaseRun(run)
	var certified bool
	var err error
	switch {
	case h != nil && opts.RefineScores && opts.Theta == 0 && opts.MaxHops == 0 && opts.MaxUsers == 0:
		// Nothing can stop this merge short of the horizon's last user.
		certified, err = run.joinHorizon(h, opts)
	case h != nil:
		run.msrc = materializedSource{list: h.list, residual: h.residual}
		certified, err = run.mainLoop(&run.msrc, q.Seeker, opts)
	default:
		certified, err = run.mainLoop(src, q.Seeker, opts)
	}
	if err != nil {
		return err
	}

	// Certified termination with approximation knobs enabled is still
	// exact as long as no cutoff or prune actually fired.
	ans.Results = run.table.AppendTopResults(ans.Results[:0])
	ans.Exact = certified && !run.cutoffFired && !run.prunedAny
	ans.Access = run.acc
	ans.UsersSettled = run.settled
	return nil
}

// mergeRun is the per-query working state of SocialMerge: the candidate
// table with its top-k, the per-tag cursors, and the access
// accounting. Runs are recycled through runPool so the warm
// read path performs no allocation; everything here is either reset or
// overwritten by acquireRun.
type mergeRun struct {
	e    *Engine
	k    int
	beta float64
	tags []tagstore.TagID // deduped query tags (reused buffer)

	table topk.Table // candidates + top-k/τ

	lists [][]tagstore.Posting // global lists per query tag
	pos   []int                // cursor per query tag

	acc         topk.Access
	settled     int
	cutoffFired bool
	prunedAny   bool

	// refineFast marks the β = 1 exact-refine execution: the (1−β)
	// global component is identically zero, so candidate creation skips
	// the per-tag global random accesses and the sorted-access rounds —
	// they only matter if a truncated horizon forces a certification
	// attempt, at which point repairRems reconstructs the state the slow
	// path would have had.
	refineFast bool

	// selectAtFinish marks a RefineScores run before finish: it settles
	// every user its source yields and tests τ nowhere on the way, so
	// raised lower bounds are not promoted and finish builds the top k
	// once (topk.Table.Select). finish clears it, after which the β < 1
	// and truncated-horizon steps promote incrementally again.
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
	// slots[k·|tags|+i] is where the list of the horizon's k-th user
	// under the i-th query tag lies in posts[i], that tag's postings.
	rank  []int32
	slots []listSlot
	posts [][]tagstore.UserPosting

	// Scratch of sweepDense, indexed by item: score[i] is item i's
	// social score so far and bit i of seen marks an item some posting
	// touched. Both are all zero between queries.
	score []float64
	seen  []uint64
}

// listSlot locates one (user, tag) posting list inside its tag's
// postings; n is 0 when the user never used the tag.
type listSlot struct{ off, n int32 }

// runPool recycles SocialMerge working state (candidate table, cursor
// slices, tag buffers, the join's rank, slot and per-item score arrays)
// so the warm read path allocates nothing. It is the package's, not an
// engine's: every compaction builds a new Engine, and the first merges
// on it reuse the arrays the last engine's merges grew instead of
// allocating their own.
var runPool = sync.Pool{New: func() any { return new(mergeRun) }}

// acquireRun checks a recycled run out of the pool and resets it for
// the query. All retained storage (tag buffer, cursor slices, the
// candidate table's arrays) is reused; what is sized by the universe
// grows to this engine's.
func (e *Engine) acquireRun(q Query, opts Options) *mergeRun {
	r := runPool.Get().(*mergeRun)
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
		r.lists = make([][]tagstore.Posting, len(r.tags))
		r.pos = make([]int, len(r.tags))
	}
	r.lists = r.lists[:len(r.tags)]
	r.pos = r.pos[:len(r.tags)]
	for i, t := range r.tags {
		r.lists[i] = e.store.GlobalList(t)
		r.pos[i] = 0
	}
	r.table.Reset(e.store.NumItems(), q.K)
	r.acc = topk.Access{}
	r.settled = 0
	r.cutoffFired = false
	r.prunedAny = false
	r.refineFast = opts.RefineScores && r.beta == 1
	r.selectAtFinish = opts.RefineScores
	r.lastCheckBound = 0
	r.sinceLastCheck = 0
	r.cachedTau = 0
	return r
}

// releaseRun returns a run to the pool holding no reference into the
// engine's snapshot: a pooled run must not keep a superseded engine, its
// store or its posting lists reachable.
func releaseRun(r *mergeRun) {
	r.e = nil
	clear(r.lists)
	clear(r.posts)
	r.msrc = materializedSource{}
	runPool.Put(r)
}

// barSum returns Σ_t bar(t): the sum over query tags of the frequency at
// the current global-list cursor (0 for exhausted lists). Any item never
// seen in list t has gtf(i,t) ≤ bar(t).
func (r *mergeRun) barSum() float64 {
	var sum float64
	for i := range r.lists {
		if r.pos[i] < len(r.lists[i]) {
			sum += float64(r.lists[i][r.pos[i]].TF)
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
		if r.pos[i] >= len(r.lists[i]) {
			continue
		}
		p := r.lists[i][r.pos[i]]
		r.pos[i]++
		r.acc.Sequential++
		moved = true
		r.ensureCandidate(p.Item)
	}
	return moved
}

// ensureCandidate returns the table index for an item, creating the
// candidate on first sight: the creation random-accesses the item's
// global frequency under every query tag, initializing rem and the
// exact (1−β)-weighted global score part. The β = 1 fast path defers
// that work (see refineFast / repairRems).
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
// comes out equal. What differs is how a user's lists are found. Each
// query tag's user list is scanned once against the horizon's rank
// marks and the hits land in a rank × tag slot array; the sweep over
// ranks then settles the slots that are set and nothing else, where
// settleUser searches every (user, tag) pair and mostly finds nothing.
// The store keeps a tag's lists back to back, so everything the sweep
// reads lies in the query tags' own postings.
func (r *mergeRun) joinHorizon(h *SeekerHorizon, opts Options) (bool, error) {
	st, tags := r.e.store, r.tags
	if r.beta == 0 {
		tags = nil // as in settleUser
	}
	nt := len(tags)
	if len(r.rank) < st.NumUsers() {
		r.rank = make([]int32, st.NumUsers())
	}
	if cap(r.slots) < len(h.list)*nt {
		r.slots = make([]listSlot, len(h.list)*nt)
	}
	r.slots = r.slots[:len(h.list)*nt]
	clear(r.slots)
	r.posts = r.posts[:0]
	for k, entry := range h.list {
		r.rank[entry.User] = int32(k) + 1
	}
	for i, t := range tags {
		users, off, post := st.TagLists(t)
		r.posts = append(r.posts, post)
		for p, u := range users {
			if k := r.rank[u]; k != 0 {
				r.slots[int(k-1)*nt+i] = listSlot{off: off[p], n: off[p+1] - off[p]}
			}
		}
	}
	for _, entry := range h.list {
		r.rank[entry.User] = 0
	}
	if r.refineFast && h.residual == 0 {
		if err := r.sweepDense(h, nt, opts); err != nil {
			return false, err
		}
		return r.finish(h.residual, opts)
	}
	for k, entry := range h.list {
		if k%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
		}
		for i, slot := range r.slots[k*nt : (k+1)*nt] {
			if slot.n != 0 {
				r.settleList(r.posts[i][slot.off:slot.off+slot.n], entry.Prox)
			}
		}
		r.userSettled()
	}
	return r.finish(h.residual, opts)
}

// sweepDense is joinHorizon's sweep for β = 1 exact refine over an
// untruncated horizon, where a candidate is only ever raised and nothing
// reads the table before finish. Each posting adds β·σ·tf into
// score[item] instead of reaching its candidate through the table's
// stamp and slot arrays; then one walk of the seen bitmap hands every
// touched item to the table in item order. Every item receives the addends settleList would have given its
// candidate, in the same order (rank, query tag, list position) and from
// the same 0, so each Lower comes out bit-identical; only the table's
// insertion order differs, which nothing after Select observes. A
// truncated horizon keeps the settleList sweep: it also needs each
// candidate's Rem = −Σ tf for repairRems.
func (r *mergeRun) sweepDense(h *SeekerHorizon, nt int, opts Options) error {
	n := r.e.store.NumItems()
	if len(r.score) < n {
		r.score = make([]float64, n)
		r.seen = make([]uint64, (n+63)/64)
	}
	score, seen := r.score, r.seen
	for k, entry := range h.list {
		if k%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				clear(score)
				clear(seen)
				return err
			}
		}
		w := r.beta * entry.Prox
		for i, slot := range r.slots[k*nt : (k+1)*nt] {
			if slot.n == 0 {
				continue
			}
			list := r.posts[i][slot.off : slot.off+slot.n]
			r.acc.Sequential += int64(len(list))
			for _, up := range list {
				score[up.Item] += w * float64(up.TF)
				seen[up.Item>>6] |= 1 << (up.Item & 63)
			}
		}
		r.userSettled()
	}
	for b, word := range seen[:(n+63)/64] {
		if word == 0 {
			continue
		}
		seen[b] = 0
		for ; word != 0; word &= word - 1 {
			item := int32(b<<6 | bits.TrailingZeros64(word))
			idx, _ := r.table.Ensure(item)
			c := r.table.At(idx)
			c.Lower, score[item] = score[item], 0
		}
	}
	return nil
}

// repairRems switches a β = 1 fast-path run back to fully initialized
// candidates: every tracked candidate gains its deferred Σ_t gtf(i,t)
// remainder mass (with the same random-access accounting the slow path
// would have paid at creation). Lower bounds need no repair — the
// (1−β) global component is zero. After the call, newly discovered
// candidates initialize fully again.
func (r *mergeRun) repairRems() {
	r.refineFast = false
	all := r.table.All()
	for i := range all {
		c := &all[i]
		var gsum int64
		for _, t := range r.tags {
			g := r.e.store.GlobalTF(c.Item, t)
			r.acc.Random++
			gsum += int64(g)
		}
		c.Rem += gsum
	}
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
		// β = 1 exact refine. With a zero residual (full horizon drained)
		// the stop test holds vacuously: the unseen bound and every
		// remainder term carry a σ·β factor of zero. Only a truncated
		// horizon needs the real test — rebuild exactly the state the
		// slow path would have had (remainders and the settled-many
		// sorted-access rounds), then certify against the residual.
		if residual > 0 && !r.cutoffFired {
			r.repairRems()
			for i := 0; i < r.settled; i++ {
				r.advanceCursors()
			}
			if r.canStop(residual) {
				return true, nil
			}
			// Draining the global lists cannot shrink the residual term,
			// so the answer is inherently approximate.
			r.cutoffFired = true
		}
		return true, nil
	}
	if residual > 0 && !r.cutoffFired {
		// A truncated materialized source ran out with users possibly
		// remaining beyond its horizon. Attempt one certification with
		// the residual bound; if it fails, the answer is inherently
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
