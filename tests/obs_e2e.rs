//! The observability layer, end to end (tier 1).
//!
//! Four guarantees `wisedb-obs` must keep:
//!
//! 1. **Exports are well-formed.** A traced solve renders Chrome
//!    trace-event JSON that parses back through the vendored JSON parser
//!    with balanced per-thread `B`/`E` nesting and monotone timestamps
//!    (the `wisedb_bench::trace_check` invariants a real viewer relies
//!    on), and a JSONL log whose every line is one valid object.
//! 2. **String escaping is lossless.** Arbitrary unicode attribute text
//!    survives `escape_json` → parse round trips (property-tested),
//!    including quotes, backslashes, and control characters.
//! 3. **Tracing changes nothing.** The same solve with tracing off, with
//!    full spans recording, and off again produces bit-identical
//!    schedules, costs, and `SearchStats` — instrumentation observes the
//!    system, it never steers it.
//! 4. **Traces show where ticks plan.** A one-shard service plans every
//!    multi-class tick on the calling thread; a two-shard one plans its
//!    second shard's groups on a scoped thread.
//!
//! Every test that touches the process-global collector serializes on
//! [`wisedb::obs::testing::hold`].

use proptest::prelude::*;
use wisedb::obs::{self, escape_json, Level};
use wisedb::prelude::*;
use wisedb_bench::trace_check;

fn instance() -> (WorkloadSpec, PerformanceGoal, Workload) {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let workload = wisedb::sim::generator::uniform_workload(&spec, 8, 42);
    (spec, goal, workload)
}

/// Invariant 1: the Chrome export of a real traced solve (plus some
/// deliberately nested spans) passes the full structural validation, and
/// the JSONL export is one parseable object per line.
#[test]
fn exports_parse_back_well_formed() {
    let _hold = obs::testing::hold();
    let collector = obs::install(Level::Spans);

    {
        // Nesting on one thread: inner must close before outer.
        let mut outer = obs::span("test.outer");
        outer.attr_str("note", "quotes \" and \\ backslashes\nsurvive");
        let _inner = obs::span("test.inner");
    }
    let (spec, goal, workload) = instance();
    Solver::new(&spec, &goal)
        .solve(&workload)
        .expect("catalog solves succeed");

    let trace = collector.finish();
    let check = trace_check::validate_chrome_trace(&trace.to_chrome())
        .unwrap_or_else(|e| panic!("chrome export failed validation: {e}"));
    assert!(
        check.events >= 4,
        "traced solve produced {} events",
        check.events
    );
    assert_eq!(check.span("test.outer").count, 1);
    assert_eq!(check.span("test.inner").count, 1);
    assert!(
        check.span("search.solve").count >= 1,
        "the solve must appear as a search.solve span"
    );

    let jsonl = trace.to_jsonl();
    let mut lines = 0;
    for line in jsonl.lines() {
        let value = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("JSONL line failed to parse: {e}\n{line}"));
        assert!(value.get("name").and_then(|v| v.as_str()).is_some());
        assert!(value.get("seq").and_then(|v| v.as_u64()).is_some());
        lines += 1;
    }
    assert_eq!(lines, trace.events.len(), "one JSONL line per event");
}

/// Invariant 3: tracing level and collector lifecycle leave the solver's
/// outputs bit-identical — schedule, cost, and every counter in
/// [`SearchStats`](wisedb::search::strategy::SearchStats).
#[test]
fn full_span_tracing_never_changes_solver_results() {
    let _hold = obs::testing::hold();
    obs::set_level(Level::Off);
    let (spec, goal, workload) = instance();
    let solve = || {
        Solver::new(&spec, &goal)
            .solve(&workload)
            .expect("catalog solves succeed")
    };

    let baseline = solve();
    let collector = obs::install(Level::Spans);
    let traced = solve();
    let trace = collector.finish();
    let after = solve();

    for (label, run) in [("traced", &traced), ("after finish", &after)] {
        assert_eq!(run.schedule, baseline.schedule, "{label}: schedule changed");
        assert_eq!(run.cost, baseline.cost, "{label}: cost changed");
        assert_eq!(
            run.stats, baseline.stats,
            "{label}: search counters changed"
        );
    }
    // ... and the traced run really was recorded.
    let totals = trace.span_totals();
    assert!(totals.contains_key("search.solve"));
}

/// Where a multi-class tick plans: with one shard every `shard.plan` span
/// runs on the calling thread (the service owns no threads); with two,
/// the second shard's groups plan on a scoped thread of their own.
#[test]
fn tick_planning_is_inline_on_one_shard_and_fans_out_on_two() {
    let _hold = obs::testing::hold();
    let spec = wisedb::sim::catalog::tpch_like(4);
    let classes: Vec<SlaClass> = [GoalKind::PerQuery, GoalKind::MaxLatency]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            SlaClass::new(
                format!("c{i}"),
                PerformanceGoal::paper_default(kind, &spec).unwrap(),
            )
        })
        .collect();
    let mix = TemplateMix::uniform(spec.num_templates());
    let stream = merge_streams(
        (0..2u32)
            .map(|c| {
                let mut process = PoissonProcess::per_second(1.0 / 200.0, mix.clone());
                generate_class_stream(&mut process, 8, 7 + c as u64, TenantId(c))
            })
            .collect(),
    );
    let plan_threads = |shards: usize| {
        let config = RuntimeConfig {
            online: OnlineConfig {
                training: ModelConfig {
                    num_samples: 32,
                    sample_size: 5,
                    seed: 5,
                    ..ModelConfig::fast()
                },
                ..OnlineConfig::default()
            },
            shards: ShardConfig::with_shards(shards),
            ..RuntimeConfig::default()
        };
        let mut svc =
            WorkloadService::train_classes(spec.clone(), classes.clone(), config).unwrap();
        let collector = obs::install(Level::Spans);
        svc.run_ticked(&stream, 4).unwrap();
        let trace = collector.finish();
        assert!(
            svc.stats().epochs > 0,
            "the trace must hold multi-class ticks"
        );
        let mut tids: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "shard.plan" && e.phase == obs::Phase::Begin)
            .map(|e| e.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    };
    assert_eq!(plan_threads(1), vec![obs::current_tid()]);
    let fanned = plan_threads(2);
    assert!(fanned.contains(&obs::current_tid()), "shard 0 plans inline");
    assert!(fanned.len() > 1, "shard 1 plans on a thread of its own");
}

/// Codepoints across ASCII (including every control character), Latin,
/// and a few astral-plane samples — whatever `filter_map` keeps is a
/// valid `String`.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..=0x2FFF, 0..48).prop_map(|cps| {
        cps.into_iter()
            .flat_map(|cp| char::from_u32(cp).or_else(|| char::from_u32(cp + 0x1F300)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, .. ProptestConfig::default()
    })]

    /// Invariant 2: `escape_json` output, embedded in a document, parses
    /// back to exactly the original string.
    #[test]
    fn escaping_round_trips_arbitrary_strings(s in arb_text()) {
        let doc = format!("{{\"k\":\"{}\"}}", escape_json(&s));
        let value = serde_json::from_str_value(&doc);
        prop_assert!(value.is_ok(), "escaped form failed to parse: {:?}", value.err());
        let back = value.unwrap();
        prop_assert_eq!(back.get("k").and_then(|v| v.as_str()), Some(s.as_str()));
    }
}
