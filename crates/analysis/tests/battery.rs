//! The fixture battery: for every pass, a true-positive fixture that
//! must fire and a false-positive fixture that must stay silent.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! scan — they contain seeded violations as test data) and are fed
//! through in-memory [`Context`]s with chosen paths, so each test pins
//! down exactly which rule fires where.

use afforest_analysis::diag::Diagnostic;
use afforest_analysis::pass::{Context, Pass};
use afforest_analysis::passes;

const SAFETY_BAD: &str = include_str!("fixtures/safety_bad.rs");
const SAFETY_GOOD: &str = include_str!("fixtures/safety_good.rs");
const SCANNER_REGRESSION: &str = include_str!("fixtures/scanner_regression.rs");
const METRIC_BAD: &str = include_str!("fixtures/metric_bad.rs");
const METRIC_GOOD: &str = include_str!("fixtures/metric_good.rs");
const EXPOSITION: &str = include_str!("fixtures/exposition_fixture.txt");
const LOCK_BAD: &str = include_str!("fixtures/lock_bad.rs");
const LOCK_GOOD: &str = include_str!("fixtures/lock_good.rs");
const LOCK_RECORDER: &str = include_str!("fixtures/lock_recorder.rs");
const LOCK_REQTRACE: &str = include_str!("fixtures/lock_reqtrace.rs");
const LOCK_ENGINE: &str = include_str!("fixtures/lock_engine.rs");
const LOCK_INGEST: &str = include_str!("fixtures/lock_ingest.rs");
const LOCK_REGISTRY: &str = include_str!("fixtures/lock_registry.rs");
const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("fixtures/panic_good.rs");
const OPCODE_BAD: &str = include_str!("fixtures/opcode_bad.rs");
const OPCODE_GOOD: &str = include_str!("fixtures/opcode_good.rs");
const OPCODE_DESIGN_BAD: &str = include_str!("fixtures/opcode_design_bad.md");
const OPCODE_DESIGN_GOOD: &str = include_str!("fixtures/opcode_design_good.md");
const AUDIT_DESIGN_BAD: &str = include_str!("fixtures/audit_design_bad.md");
const AUDIT_DESIGN_GOOD: &str = include_str!("fixtures/audit_design_good.md");
const STAGE_BAD: &str = include_str!("fixtures/stage_bad.rs");
const STAGE_GOOD: &str = include_str!("fixtures/stage_good.rs");
const STAGE_DESIGN_BAD: &str = include_str!("fixtures/stage_design_bad.md");
const STAGE_DESIGN_GOOD: &str = include_str!("fixtures/stage_design_good.md");

/// A root module that satisfies the hygiene rule for crates with unsafe.
const DENY_ROOT: &str = "#![deny(unsafe_op_in_unsafe_fn)]\n";

/// A file with one relaxed atomic site, for audit-drift liveness.
const ATOMIC_FILE: &str =
    "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";

fn run_pass(
    pass: &dyn Pass,
    sources: Vec<(&str, &str)>,
    docs: Vec<(&str, &str)>,
) -> Vec<Diagnostic> {
    pass.run(&Context::from_sources(sources, docs))
}

fn messages(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.to_string() + "\n").collect()
}

// ---------------------------------------------------------------- safety

#[test]
fn safety_fires_on_unjustified_unsafe() {
    let diags = run_pass(
        &passes::safety::SafetyCoverage,
        vec![
            ("crates/cli/src/lib.rs", DENY_ROOT),
            ("crates/cli/src/bad.rs", SAFETY_BAD),
        ],
        vec![],
    );
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("`unsafe` without"));
    assert_eq!(diags[0].file, "crates/cli/src/bad.rs");
}

#[test]
fn safety_silent_on_justified_unsafe() {
    let diags = run_pass(
        &passes::safety::SafetyCoverage,
        vec![
            ("crates/graph/src/lib.rs", DENY_ROOT),
            ("crates/graph/src/good.rs", SAFETY_GOOD),
        ],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn safety_requires_forbid_in_unsafe_free_crates() {
    let diags = run_pass(
        &passes::safety::SafetyCoverage,
        vec![("crates/cli/src/lib.rs", "pub fn safe() {}\n")],
        vec![],
    );
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("forbid(unsafe_code)"));

    let diags = run_pass(
        &passes::safety::SafetyCoverage,
        vec![(
            "crates/cli/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn safe() {}\n",
        )],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

/// Regression: the predecessor line scanner let a string literal
/// containing `"// SAFETY:"` justify an `unsafe` on the same line.
#[test]
fn safety_regression_string_is_not_a_comment() {
    let diags = run_pass(
        &passes::safety::SafetyCoverage,
        vec![
            ("crates/cli/src/lib.rs", DENY_ROOT),
            ("crates/cli/src/reg.rs", SCANNER_REGRESSION),
        ],
        vec![],
    );
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert_eq!(diags[0].file, "crates/cli/src/reg.rs");
    assert!(
        SCANNER_REGRESSION
            .lines()
            .nth(diags[0].line - 1)
            .unwrap()
            .contains("_lie"),
        "must flag the unsafe next to the lying string literal"
    );
}

// -------------------------------------------------------------- ordering

#[test]
fn ordering_fires_outside_allowlist_and_not_inside() {
    let pass = passes::ordering::OrderingAllowlist;
    let diags = run_pass(&pass, vec![("crates/cli/src/bad.rs", SAFETY_BAD)], vec![]);
    assert_eq!(diags.len(), 2, "{}", messages(&diags)); // Relaxed + SeqCst
    let diags = run_pass(
        &pass,
        vec![("crates/core/src/parents.rs", SAFETY_BAD)],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

/// Regression: the predecessor scanner flagged `Ordering::SeqCst` inside
/// a block comment (it only understood `//`).
#[test]
fn ordering_regression_block_comment_is_prose() {
    for pass in [
        Box::new(passes::ordering::OrderingAllowlist) as Box<dyn Pass>,
        Box::new(passes::seqcst::SeqCstBan),
    ] {
        let diags = run_pass(
            pass.as_ref(),
            vec![("crates/cli/src/reg.rs", SCANNER_REGRESSION)],
            vec![],
        );
        assert!(
            diags.is_empty(),
            "{} fired on commented-out code:\n{}",
            pass.id(),
            messages(&diags)
        );
    }
}

// ---------------------------------------------------------------- seqcst

#[test]
fn seqcst_fires_even_in_allowlisted_files() {
    let diags = run_pass(
        &passes::seqcst::SeqCstBan,
        vec![("crates/core/src/parents.rs", SAFETY_BAD)],
        vec![],
    );
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("SeqCst"));
}

// -------------------------------------------------------- metric fixture

#[test]
fn metric_fixture_fires_on_dynamic_and_uncovered_names() {
    let diags = run_pass(
        &passes::metric_fixture::MetricFixture,
        vec![("crates/serve/src/metrics.rs", METRIC_BAD)],
        vec![(afforest_analysis::METRIC_FIXTURE, EXPOSITION)],
    );
    assert_eq!(diags.len(), 2, "{}", messages(&diags));
    assert!(diags.iter().any(|d| d.message.contains("non-literal")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("not_in_fixture_gauge")));
}

#[test]
fn metric_fixture_silent_on_covered_literals() {
    let diags = run_pass(
        &passes::metric_fixture::MetricFixture,
        vec![("crates/serve/src/metrics.rs", METRIC_GOOD)],
        vec![(afforest_analysis::METRIC_FIXTURE, EXPOSITION)],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn metric_fixture_reports_missing_fixture() {
    let diags = run_pass(
        &passes::metric_fixture::MetricFixture,
        vec![("crates/serve/src/metrics.rs", METRIC_GOOD)],
        vec![],
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("fixture is missing")),
        "{}",
        messages(&diags)
    );
}

// ------------------------------------------------------------ lock order

#[test]
fn lock_order_fires_on_ab_ba_cycle() {
    let diags = run_pass(
        &passes::lock_order::LockOrder,
        vec![
            ("crates/serve/src/shared.rs", LOCK_BAD),
            ("crates/obs/src/recorder.rs", LOCK_RECORDER),
        ],
        vec![],
    );
    let unallowlisted = diags
        .iter()
        .filter(|d| d.message.contains("new lock-order edge"))
        .count();
    assert_eq!(unallowlisted, 2, "{}", messages(&diags)); // alpha->beta and beta->alpha
    assert!(
        diags.iter().any(|d| d.message.contains("cycle")),
        "{}",
        messages(&diags)
    );
}

#[test]
fn lock_order_silent_on_temporaries_drops_and_condvar_wait() {
    // The companion fixtures supply evidence for every allowlisted
    // edge, so the only possible diagnostics are false positives from
    // LOCK_GOOD's patterns.
    let diags = run_pass(
        &passes::lock_order::LockOrder,
        vec![
            ("crates/serve/src/queue.rs", LOCK_GOOD),
            ("crates/obs/src/recorder.rs", LOCK_RECORDER),
            ("crates/obs/src/reqtrace.rs", LOCK_REQTRACE),
            ("crates/serve/src/engine.rs", LOCK_ENGINE),
            ("crates/serve/src/ingest.rs", LOCK_INGEST),
            ("crates/obs/src/registry.rs", LOCK_REGISTRY),
        ],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn lock_order_reports_stale_allowlist_edge() {
    // The engine/ingest/registry fixtures evidence their edges, but no
    // recorder is in the tree: both allowlisted edges that involve the
    // recorder's GATE lose their evidence and must be reported stale.
    let diags = run_pass(
        &passes::lock_order::LockOrder,
        vec![
            ("crates/serve/src/queue.rs", LOCK_GOOD),
            ("crates/serve/src/engine.rs", LOCK_ENGINE),
            ("crates/serve/src/ingest.rs", LOCK_INGEST),
            ("crates/obs/src/registry.rs", LOCK_REGISTRY),
        ],
        vec![],
    );
    assert_eq!(diags.len(), 2, "{}", messages(&diags));
    for d in &diags {
        assert!(d.message.contains("no remaining evidence"), "{}", d.message);
    }
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`recorder::GATE` -> `recorder::STATE`")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`reqtrace::GATE` -> `recorder::GATE`")));
}

// ------------------------------------------------------------ panic path

#[test]
fn panic_path_fires_on_unwrap_expect_panic_and_indexing() {
    let diags = run_pass(
        &passes::panic_path::PanicPath,
        vec![("crates/serve/src/protocol.rs", PANIC_BAD)],
        vec![],
    );
    let msgs = messages(&diags);
    assert_eq!(diags.len(), 5, "{msgs}");
    for needle in ["`panic`", "`unwrap`", "`expect`"] {
        assert!(msgs.contains(needle), "{msgs}");
    }
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.message.contains("indexing"))
            .count(),
        2,
        "{msgs}"
    );
}

#[test]
fn panic_path_silent_on_justified_tests_and_lookalikes() {
    let diags = run_pass(
        &passes::panic_path::PanicPath,
        vec![("crates/serve/src/protocol.rs", PANIC_GOOD)],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn panic_path_ignores_files_off_the_wire_path() {
    let diags = run_pass(
        &passes::panic_path::PanicPath,
        vec![("crates/core/src/afforest.rs", PANIC_BAD)],
        vec![],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

// ----------------------------------------------------------- audit drift

#[test]
fn audit_drift_silent_when_audit_mirrors_allowlist() {
    let diags = run_pass(
        &passes::audit::AuditDrift,
        vec![
            ("crates/core/src/parents.rs", ATOMIC_FILE),
            ("crates/core/src/instrument.rs", ATOMIC_FILE),
            ("crates/obs/src/registry.rs", ATOMIC_FILE),
            ("crates/serve/src/stats.rs", ATOMIC_FILE),
            ("crates/baselines/src/sv.rs", ATOMIC_FILE),
            ("crates/shard/src/router.rs", ATOMIC_FILE),
        ],
        vec![("DESIGN.md", AUDIT_DESIGN_GOOD)],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn audit_drift_fires_on_all_three_drift_modes() {
    let diags = run_pass(
        &passes::audit::AuditDrift,
        vec![
            // parents.rs exists but its atomics are gone.
            ("crates/core/src/parents.rs", "pub fn plain() {}\n"),
        ],
        vec![("DESIGN.md", AUDIT_DESIGN_BAD)],
    );
    let msgs = messages(&diags);
    // Allowlist entries with no audit section (5 of 6 are missing).
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.message.contains("has no audit subsection"))
            .count(),
        5,
        "{msgs}"
    );
    // An audited path that is not allowlisted.
    assert!(msgs.contains("crates/cli/src/main.rs"), "{msgs}");
    assert!(msgs.contains("no matching ORDERING_ALLOWLIST"), "{msgs}");
    // An audited path whose atomics are gone.
    assert!(msgs.contains("covers no remaining atomics"), "{msgs}");
    // The `### \`crates/obs/src/*\`` under section 9 must NOT be parsed
    // as an audit subsection (only the one under section 8 counts, so no
    // "subsection for obs" finding may exist).
    assert!(!msgs.contains("subsection for `crates/obs/src/`"), "{msgs}");
}

#[test]
fn audit_drift_reports_missing_design() {
    let diags = run_pass(&passes::audit::AuditDrift, vec![], vec![]);
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("DESIGN.md is missing"));
}

// ---------------------------------------------------- opcode consistency

#[test]
fn opcode_silent_when_all_surfaces_agree() {
    let diags = run_pass(
        &passes::opcode::OpcodeConsistency,
        vec![(passes::opcode::PROTOCOL_FILE, OPCODE_GOOD)],
        vec![("DESIGN.md", OPCODE_DESIGN_GOOD)],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn opcode_fires_on_every_drift_mode() {
    let diags = run_pass(
        &passes::opcode::OpcodeConsistency,
        vec![(passes::opcode::PROTOCOL_FILE, OPCODE_BAD)],
        vec![("DESIGN.md", OPCODE_DESIGN_BAD)],
    );
    let msgs = messages(&diags);
    assert!(
        msgs.contains("assigned to both `OP_PING` and `OP_DUP`"),
        "{msgs}"
    );
    assert!(msgs.contains("inside the request range"), "{msgs}");
    assert!(
        msgs.contains("`OP_DEAD` is not used by both the encoder and the decoder"),
        "{msgs}"
    );
    assert!(msgs.contains("`OP_GHOST`"), "{msgs}");
    assert!(msgs.contains("`OP_DUP` = 0x03 but"), "{msgs}");
    // OP_PING is declared but missing from the drifted table.
    assert!(
        msgs.contains("missing from DESIGN.md's opcode table"),
        "{msgs}"
    );
    // Stale prose byte 0x77.
    assert!(msgs.contains("0x77"), "{msgs}");
}

#[test]
fn opcode_requires_a_table_when_opcodes_exist() {
    let diags = run_pass(
        &passes::opcode::OpcodeConsistency,
        vec![(passes::opcode::PROTOCOL_FILE, OPCODE_GOOD)],
        vec![("DESIGN.md", "# No table here\n")],
    );
    assert!(
        diags.iter().any(|d| d.message.contains("no opcode table")),
        "{}",
        messages(&diags)
    );
}

// -------------------------------------------------------------- stage-doc

#[test]
fn stage_doc_silent_when_taxonomy_and_table_agree() {
    let diags = run_pass(
        &passes::stage_doc::StageDoc,
        vec![(passes::stage_doc::REQTRACE_FILE, STAGE_GOOD)],
        vec![("DESIGN.md", STAGE_DESIGN_GOOD)],
    );
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn stage_doc_fires_on_every_drift_mode() {
    let diags = run_pass(
        &passes::stage_doc::StageDoc,
        vec![(passes::stage_doc::REQTRACE_FILE, STAGE_BAD)],
        vec![("DESIGN.md", STAGE_DESIGN_BAD)],
    );
    let msgs = messages(&diags);
    // Duplicate declaration.
    assert!(msgs.contains("declared twice"), "{msgs}");
    // Non-snake_case tag.
    assert!(msgs.contains("not snake_case"), "{msgs}");
    // Declared but undocumented.
    assert!(
        msgs.contains("\"secret_stage\" is missing from DESIGN.md"),
        "{msgs}"
    );
    // Documented but never declared.
    assert!(msgs.contains("`ghost_stage`"), "{msgs}");
}

#[test]
fn stage_doc_requires_a_table_when_stages_exist() {
    let diags = run_pass(
        &passes::stage_doc::StageDoc,
        vec![(passes::stage_doc::REQTRACE_FILE, STAGE_GOOD)],
        vec![("DESIGN.md", "# No tracing section here\n")],
    );
    assert!(
        diags.iter().any(|d| d.message.contains("no stage table")),
        "{}",
        messages(&diags)
    );
}

#[test]
fn stage_doc_ignores_tables_outside_the_tracing_section() {
    // `not_a_stage` appears in a table under a different heading in the
    // good fixture; it must not be reported.
    let rows = passes::stage_doc::table_rows(STAGE_DESIGN_GOOD);
    assert!(rows.iter().all(|(n, _)| n != "not_a_stage"), "{rows:?}");
    assert_eq!(rows.len(), 3, "{rows:?}");
}

// ------------------------------------------------------------ the driver

#[test]
fn full_battery_report_shape_and_json() {
    let ctx = Context::from_sources(
        vec![("crates/cli/src/bad.rs", SAFETY_BAD)],
        vec![("DESIGN.md", AUDIT_DESIGN_GOOD)],
    );
    let report = afforest_analysis::run(&ctx);
    assert_eq!(report.passes.len(), 9);
    assert_eq!(report.files_scanned, 1);
    assert!(report.has_errors());
    let json = afforest_analysis::diag::to_json(&report);
    assert!(json.contains("\"version\":1"));
    for (id, _) in afforest_analysis::list_passes() {
        assert!(json.contains(id), "{id} missing from JSON pass list");
    }
}
