package imfant

import (
	"sync/atomic"

	"repro/internal/ahocorasick"
	"repro/internal/bytescan"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/lazydfa"
	"repro/internal/nfa"
	"repro/internal/rex"
	"repro/internal/strategy"
)

// Strategy is the execution strategy the planner assigned to one automaton
// group. With Options.Engine == EngineAuto every group is classified at
// compile time (see DESIGN.md, "Per-group strategy planner"); a forced
// EngineIMFAnt/EngineLazyDFA puts every group on that engine.
type Strategy uint8

const (
	// StrategyIMFAnt runs the group on the paper's NFA-style engine.
	StrategyIMFAnt Strategy = iota
	// StrategyLazyDFA runs the group on the lazy-DFA engine.
	StrategyLazyDFA
	// StrategyAC runs an all-literal group as a pure Aho–Corasick scan:
	// no automaton executes at all, and the literal scan doubles as the
	// group's factor sweep.
	StrategyAC
	// StrategyAnchored runs a group of anchored-literal rules (`^lit$`,
	// `^lit`, `lit$`, `^prefix<set>*suffix$`) as O(1)-ish per-scan checks:
	// bounded prefix/suffix compares plus a vectorized hunt for a byte the
	// middle cannot consume.
	StrategyAnchored
	// StrategyDFA runs a small group on an eagerly determinized DFA
	// (internal/dfa): one table lookup per input byte, no activation
	// bookkeeping.
	StrategyDFA

	numStrategies = 5
)

// String returns the snapshot label ("imfant", "lazydfa", "ac", "anchored",
// "dfa").
func (s Strategy) String() string {
	switch s {
	case StrategyIMFAnt:
		return "imfant"
	case StrategyLazyDFA:
		return "lazydfa"
	case StrategyAC:
		return "ac"
	case StrategyAnchored:
		return "anchored"
	case StrategyDFA:
		return "dfa"
	}
	return "unknown"
}

// Eager-DFA admission bounds: groups whose member NFAs total more states
// than maxEagerNFAStates are not even attempted, and subset construction
// itself is capped at maxEagerDFAStates (a blow-up falls back to the
// default engine at compile time, never at scan time).
const (
	maxEagerNFAStates = 128
	maxEagerDFAStates = 2048
)

// acGroup is the compiled form of a pure-AC group: the Aho–Corasick
// automaton over the member literals, in program FSA order (pattern id ==
// FSA index within the group).
type acGroup struct {
	m     *ahocorasick.Matcher
	rules int
}

// anchRule is one compiled anchored-literal check.
type anchRule struct {
	sh     strategy.Shape
	bad    bytescan.Finder // hunts bytes the middle cannot consume
	hasBad bool
	minLen int
}

// anchGroup is the compiled form of an anchored-literal group, indexed by
// FSA within the program.
type anchGroup struct {
	rules     []anchRule
	maxSuffix int // longest member suffix: the stream tail window
}

// scanPlan is the planner's output, recorded on the Ruleset: one strategy
// per automaton group plus the compiled per-strategy artifacts.
type scanPlan struct {
	strat   []Strategy
	ac      []*acGroup   // non-nil iff strat[i] == StrategyAC
	anch    []*anchGroup // non-nil iff strat[i] == StrategyAnchored
	dfas    []*dfa.DFA   // non-nil iff strat[i] == StrategyDFA
	counts  [numStrategies]int
	planned bool // false under a forced Options.Engine
}

// gatable reports whether group i participates in factor-prefilter gating.
// AC groups would be double-scanned (their strategy scan is itself a
// literal sweep) and anchored groups are O(1) already, so only DFA and
// default-engine groups are worth gating.
func (pl *scanPlan) gatable(i int) bool {
	return pl.strat[i] != StrategyAC && pl.strat[i] != StrategyAnchored
}

// segmentable reports whether group i runs segment-parallel with boundary
// stitching (a default-engine group) and whether its workers run the lazy
// DFA. AC groups segment by overlap windows instead (see segment.go).
func (pl *scanPlan) segmentable(i int) (ok, lazy bool) {
	switch pl.strat[i] {
	case StrategyIMFAnt:
		return true, false
	case StrategyLazyDFA:
		return true, true
	}
	return false, false
}

// literalCounts returns the number of rules in AC-routed groups and of
// distinct literals among them, for the prefilter config section (the AC
// scans report into the prefilter counters as that many sweeps' factor
// automata).
func (pl *scanPlan) literalCounts(rs *Ruleset) (rules, distinct int) {
	seen := make(map[string]bool)
	for i, g := range pl.ac {
		if g == nil {
			continue
		}
		rules += g.rules
		for _, ri := range rs.programs[i].Rules() {
			if !seen[ri.Pattern] {
				seen[ri.Pattern] = true
				distinct++
			}
		}
	}
	return rules, distinct
}

// StrategyOf returns the execution strategy of automaton group i.
func (rs *Ruleset) StrategyOf(i int) Strategy { return rs.plan.strat[i] }

// Strategies returns the per-group strategy assignment, indexed like the
// automata.
func (rs *Ruleset) Strategies() []Strategy {
	return append([]Strategy(nil), rs.plan.strat...)
}

// defaultStrategy resolves the engine groups fall to when no fast shape
// applies: the forced Options.Engine, else the lazy DFA whenever its keep
// semantics apply (KeepOnMatch) and iMFAnt otherwise.
func (rs *Ruleset) defaultStrategy() Strategy {
	if rs.opts.Engine == EngineLazyDFA || (rs.opts.Engine != EngineIMFAnt && rs.opts.KeepOnMatch) {
		return StrategyLazyDFA
	}
	return StrategyIMFAnt
}

// buildPlan classifies every automaton group. shapes is the Front-End's
// per-rule classification (indexed by original rule id; nil disables the
// fast shapes); nfas maps rule id to its optimized per-rule NFA (nil — e.g.
// rulesets loaded from ANML — disables the eager-DFA strategy). Called
// after buildEngines, before buildPrefilter (which consults the plan).
func (rs *Ruleset) buildPlan(shapes []strategy.Shape, nfas map[int]*nfa.NFA) {
	n := len(rs.programs)
	pl := &scanPlan{
		strat:   make([]Strategy, n),
		ac:      make([]*acGroup, n),
		anch:    make([]*anchGroup, n),
		dfas:    make([]*dfa.DFA, n),
		planned: rs.opts.Engine == EngineAuto,
	}
	def := rs.defaultStrategy()
	for i := range rs.programs {
		pl.strat[i] = def
		if pl.planned {
			rs.classifyGroup(pl, i, shapes, nfas)
		}
		pl.counts[pl.strat[i]]++
	}
	rs.plan = pl

	if pl.counts[StrategyLazyDFA] > 0 {
		classes := 0
		for i, st := range pl.strat {
			if st == StrategyLazyDFA {
				classes += rs.lazy[i].NumClasses()
			}
		}
		rs.collector.EnableLazy(pl.counts[StrategyLazyDFA],
			lazydfa.ResolveMaxStates(rs.opts.LazyDFAMaxStates), classes)
	}

	names := make([]string, numStrategies)
	groups := make([]int, numStrategies)
	for k := 0; k < numStrategies; k++ {
		names[k] = Strategy(k).String()
		groups[k] = pl.counts[k]
	}
	rs.collector.EnableStrategy(pl.planned, names, groups)
}

// classifyGroup decides group i's strategy, in preference order: pure AC
// (every member a plain literal), anchored-literal, eager DFA (small,
// unanchored, and pop ≡ keep for every member), default engine.
func (rs *Ruleset) classifyGroup(pl *scanPlan, i int, shapes []strategy.Shape, nfas map[int]*nfa.NFA) {
	rules := rs.programs[i].Rules()
	if len(shapes) > 0 {
		allLit, allAnch := true, true
		for _, ri := range rules {
			if ri.RuleID < 0 || ri.RuleID >= len(shapes) {
				return
			}
			switch shapes[ri.RuleID].Kind {
			case strategy.KindLiteral:
				allAnch = false
			case strategy.KindAnchored:
				allLit = false
			default:
				allLit, allAnch = false, false
			}
		}
		if allLit && len(rules) > 0 {
			pats := make([][]byte, len(rules))
			for j, ri := range rules {
				pats[j] = shapes[ri.RuleID].Literal
			}
			if m, err := ahocorasick.New(pats); err == nil {
				pl.strat[i] = StrategyAC
				pl.ac[i] = &acGroup{m: m, rules: len(rules)}
				return
			}
		}
		if allAnch && len(rules) > 0 {
			g := &anchGroup{rules: make([]anchRule, len(rules))}
			ok := true
			for j, ri := range rules {
				sh := shapes[ri.RuleID]
				r := anchRule{sh: sh, minLen: sh.MinLen()}
				if sh.HasMiddle && len(sh.MiddleExcluded) > 0 {
					f, built := sh.BadFinder()
					if !built {
						// Cannot hunt the violating bytes: the check
						// would be unsound, so the group stays general.
						ok = false
						break
					}
					r.bad, r.hasBad = f, true
				}
				if len(sh.Suffix) > g.maxSuffix {
					g.maxSuffix = len(sh.Suffix)
				}
				g.rules[j] = r
			}
			if ok {
				pl.strat[i] = StrategyAnchored
				pl.anch[i] = g
				return
			}
		}
	}
	if d := rs.eagerDFA(rules, nfas); d != nil {
		pl.strat[i] = StrategyDFA
		pl.dfas[i] = d
	}
}

// eagerDFA attempts the eager-DFA strategy for a group: every member must
// have an optimized unanchored NFA, the group must be small, and — because
// the scan determinization has keep semantics — either KeepOnMatch is set
// or every member's final states are sinks, which makes the Eq. 5 pop
// unobservable (a popped thread had nowhere to go anyway). Returns nil when
// the group does not qualify or subset construction explodes.
func (rs *Ruleset) eagerDFA(rules []engine.RuleInfo, nfas map[int]*nfa.NFA) *dfa.DFA {
	if nfas == nil || len(rules) == 0 {
		return nil
	}
	group := make([]*nfa.NFA, len(rules))
	states := 0
	for j, ri := range rules {
		a := nfas[ri.RuleID]
		if a == nil || a.AnchorStart || a.AnchorEnd || len(a.Eps) > 0 || len(a.Loops) > 0 {
			return nil
		}
		if !rs.opts.KeepOnMatch && !finalsAreSinks(a) {
			return nil
		}
		states += a.NumStates
		if states > maxEagerNFAStates {
			return nil
		}
		group[j] = a
	}
	d, err := dfa.FromNFAs(group, maxEagerDFAStates)
	if err != nil {
		return nil
	}
	return d
}

// finalsAreSinks reports whether none of the NFA's final states has an
// outgoing transition — the condition under which the engines' pop and
// keep semantics coincide for the rule.
func finalsAreSinks(a *nfa.NFA) bool {
	final := make(map[nfa.StateID]bool, len(a.Finals))
	for _, f := range a.Finals {
		final[f] = true
	}
	for _, t := range a.Trans {
		if final[t.From] {
			return false
		}
	}
	return true
}

// shapesOf re-derives per-rule shapes from pattern sources, for rulesets
// whose compilation pipeline did not run (LoadANML). Rules whose source is
// missing or no longer parses stay KindGeneral, which is always sound.
func shapesOf(patterns []string) []strategy.Shape {
	out := make([]strategy.Shape, len(patterns))
	for i, p := range patterns {
		if p == "" {
			continue
		}
		if ast, err := rex.Parse(p); err == nil {
			out[i] = strategy.Classify(ast)
		}
	}
	return out
}

// Effectiveness-tracker tuning: per-group wake rates are judged over
// windows of trackerWindow sweeps; a group waking in ≥ 90% of a window's
// sweeps has its gate disabled (the sweep is pure overhead for it). A
// disabled group re-enables for free on any sweep — run for the other
// groups — in which it would not have woken. Once every gated group is
// disabled the sweep itself is elided, with one explicit probe sweep every
// trackerProbeEvery elisions so a traffic shift can re-arm gating.
const (
	trackerWindow     = 16
	trackerProbeEvery = 32
)

// prefTracker is the runtime prefilter-effectiveness tracker, shared by
// every Scanner and CountParallel call of a ruleset (streams gate exactly
// and retire their sweep after the first chunk, so they neither consult nor
// feed the tracker). All state is atomic; windows are approximate under
// concurrency, which only shifts when a decision lands, never its
// soundness — a disabled gate means more groups run, and a sweep that does
// run is always exact.
type prefTracker struct {
	groups   []trackerGroup // indexed by automaton; only gated entries used
	gated    int            // number of gated (non-always) groups
	disabled atomic.Int64   // gauge: gated groups currently disabled
	elided   atomic.Int64   // elided sweeps since the last probe
}

type trackerGroup struct {
	off    atomic.Bool // gate disabled: the group runs every scan
	sweeps atomic.Int64
	wakes  atomic.Int64
}

func newPrefTracker(groupAlways []bool) *prefTracker {
	t := &prefTracker{groups: make([]trackerGroup, len(groupAlways))}
	for _, always := range groupAlways {
		if !always {
			t.gated++
		}
	}
	return t
}

// decide reports whether the next sweep should run at all and whether it
// runs as an explicit re-enable probe. Nil-safe.
func (t *prefTracker) decide() (run, probe bool) {
	if t == nil || t.gated == 0 {
		return true, false
	}
	if t.disabled.Load() < int64(t.gated) {
		return true, false
	}
	if t.elided.Add(1) >= trackerProbeEvery {
		t.elided.Store(0)
		return true, true
	}
	return false, false
}

// disabledNow returns how many gated groups' gates are currently off — the
// Stats().Strategy.GroupsUngated gauge. Nil-safe.
func (t *prefTracker) disabledNow() int64 {
	if t == nil {
		return 0
	}
	return t.disabled.Load()
}

// isDisabled reports whether group i's gate is currently off. Nil-safe.
func (t *prefTracker) isDisabled(i int) bool {
	return t != nil && t.groups[i].off.Load()
}

// observe folds one sweep's outcome for gated group i: woke means the
// group's factors occurred, so gating saved nothing. Returns the group's
// disabled state to apply to this scan (a disabled group runs even when
// the sweep says it could be skipped). Nil-safe.
func (t *prefTracker) observe(i int, woke bool) {
	if t == nil {
		return
	}
	g := &t.groups[i]
	if g.off.Load() {
		if !woke {
			// The sweep ran anyway (for the other groups) and this group
			// would have been skipped: gating pays again.
			if g.off.CompareAndSwap(true, false) {
				g.sweeps.Store(0)
				g.wakes.Store(0)
				t.disabled.Add(-1)
			}
		}
		return
	}
	s := g.sweeps.Add(1)
	if woke {
		g.wakes.Add(1)
	}
	if s >= trackerWindow {
		w := g.wakes.Load()
		g.sweeps.Store(0)
		g.wakes.Store(0)
		if w*10 >= s*9 {
			if g.off.CompareAndSwap(false, true) {
				t.disabled.Add(1)
			}
		}
	}
}
