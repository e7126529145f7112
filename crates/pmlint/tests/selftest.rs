//! pmlint self-tests: every rule must fire on its seeded-violation
//! fixture, stay quiet on the clean fixture, and — the gate that matters —
//! the real workspace must lint clean.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (String, String) {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let label = format!("crates/pmlint/fixtures/{name}");
    (
        label,
        std::fs::read_to_string(&p).expect("fixture readable"),
    )
}

fn lint_fixture(name: &str) -> Vec<pmlint::Violation> {
    let (label, src) = fixture(name);
    pmlint::lint_source(&label, &src)
}

fn rule_lines(vs: &[pmlint::Violation], rule: &str) -> Vec<usize> {
    vs.iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn persist_coverage_rule_fires() {
    let vs = lint_fixture("bad_persist.rs");
    let lines = rule_lines(&vs, "persist-coverage");
    assert_eq!(
        lines.len(),
        3,
        "expected the three uncovered writes, got {vs:?}"
    );
    // The covered, waived and lock-acquire sites stay quiet.
    assert_eq!(vs.len(), 3, "only persist-coverage may fire: {vs:?}");
}

#[test]
fn safety_comment_rule_fires() {
    let vs = lint_fixture("bad_safety.rs");
    let lines = rule_lines(&vs, "safety-comment");
    assert_eq!(
        lines.len(),
        2,
        "expected the undocumented impl + block, got {vs:?}"
    );
    assert_eq!(vs.len(), 2, "only safety-comment may fire: {vs:?}");
}

#[test]
fn relaxed_ordering_rule_fires() {
    let vs = lint_fixture("bad_relaxed.rs");
    let lines = rule_lines(&vs, "relaxed-ordering");
    assert_eq!(
        lines.len(),
        3,
        "expected version x2 + migration counter, got {vs:?}"
    );
    assert_eq!(vs.len(), 3, "only relaxed-ordering may fire: {vs:?}");
}

#[test]
fn ptr_cache_rule_fires() {
    let vs = lint_fixture("bad_ptr_cache.rs");
    let lines = rule_lines(&vs, "ptr-cache");
    assert_eq!(lines.len(), 1, "expected the cached pvalue, got {vs:?}");
    assert_eq!(vs.len(), 1, "only ptr-cache may fire: {vs:?}");
}

#[test]
fn raw_string_does_not_hide_a_missing_persist() {
    // Regression fixture for the lexer blind spot: before raw-string
    // support, the `persist` inside `r#"…"#` counted as coverage and this
    // write slipped through with zero findings.
    let vs = lint_fixture("bad_rawstring.rs");
    let lines = rule_lines(&vs, "persist-coverage");
    assert_eq!(lines.len(), 1, "expected the one uncovered write: {vs:?}");
    assert_eq!(vs.len(), 1, "only persist-coverage may fire: {vs:?}");
}

#[test]
fn nested_comment_does_not_hide_a_missing_persist() {
    // Regression fixture: a depth-unaware lexer leaves the outer block
    // comment at the inner `*/`, sees the commented `persist(p, 16)` as
    // code, and reports nothing.
    let vs = lint_fixture("bad_nested_comment.rs");
    let lines = rule_lines(&vs, "persist-coverage");
    assert_eq!(lines.len(), 1, "expected the one uncovered write: {vs:?}");
    assert_eq!(vs.len(), 1, "only persist-coverage may fire: {vs:?}");
}

#[test]
fn lock_order_table_matches_runtime_ranks() {
    // R5's static table and the runtime lock-witness must agree on the
    // hierarchy, or a passing lint could coexist with a panicking witness
    // (and vice versa).
    let by_name = |n: &str| {
        pmlint::locks::LOCK_ORDER
            .iter()
            .find(|c| c.name == n)
            .unwrap_or_else(|| panic!("LOCK_ORDER lost class {n}"))
            .rank
    };
    assert_eq!(by_name("DIR_RESIZE"), parking_lot::rank::DIR_RESIZE);
    assert_eq!(by_name("BUCKET_ENTRIES"), parking_lot::rank::BUCKET_ENTRIES);
    assert_eq!(by_name("SHARD"), parking_lot::rank::SHARD);
    assert_eq!(by_name("EPALLOC_CLASS"), parking_lot::rank::EPALLOC_CLASS);
    assert_eq!(by_name("LOG_SLOTS"), parking_lot::rank::LOG_SLOTS);
    assert_eq!(by_name("EBR_GARBAGE"), parking_lot::rank::EBR_GARBAGE);
    assert_eq!(by_name("DIR_SCAN_CACHE"), parking_lot::rank::DIR_SCAN_CACHE);
    assert_eq!(by_name("GROUP_COMMIT"), parking_lot::rank::GROUP_COMMIT);
    assert_eq!(by_name("SERVER_CONNS"), parking_lot::rank::SERVER_CONNS);
    assert_eq!(pmlint::locks::LOCK_ORDER.len(), 9, "table drifted");
}

#[test]
fn epoch_escape_rule_fires() {
    let (label, src) = fixture("bad_epoch_escape.rs");
    let r = pmlint::analyze_sources(vec![(label, src)]);
    let lines = rule_lines(&r.violations, "epoch-escape");
    assert_eq!(
        lines.len(),
        4,
        "expected return + field store + publish + use-after-unpin, got {:?}",
        r.violations
    );
    assert_eq!(
        r.violations.len(),
        4,
        "only epoch-escape may fire: {:?}",
        r.violations
    );
    assert_eq!(
        r.waived.iter().filter(|v| v.rule == "epoch-escape").count(),
        1,
        "the waived field store must be reported, not dropped: {:?}",
        r.waived
    );
}

#[test]
fn seqlock_purity_rule_fires() {
    let (label, src) = fixture("bad_seqlock.rs");
    let r = pmlint::analyze_sources(vec![(label, src)]);
    let lines = rule_lines(&r.violations, "seqlock-purity");
    assert_eq!(
        lines.len(),
        5,
        "expected no-validate + alloc + store + lock + unvalidated exit, got {:?}",
        r.violations
    );
    assert_eq!(
        r.violations.len(),
        5,
        "only seqlock-purity may fire: {:?}",
        r.violations
    );
    assert_eq!(
        r.waived
            .iter()
            .filter(|v| v.rule == "seqlock-purity")
            .count(),
        1,
        "the waived scratch alloc must be reported: {:?}",
        r.waived
    );
}

#[test]
fn durable_ack_rule_fires() {
    // R9 is scoped to the server + group-commit sources, so the fixture
    // lints under a `crates/server/src/` label (fixture paths are outside
    // the rule's scope by design — they never pollute the workspace scan).
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad_ack_order.rs");
    let src = std::fs::read_to_string(&p).expect("fixture readable");
    let r = pmlint::analyze_sources(vec![(
        "crates/server/src/bad_ack_order.rs".to_string(),
        src,
    )]);
    let lines = rule_lines(&r.violations, "durable-ack");
    assert_eq!(
        lines.len(),
        3,
        "expected early ack + dropped complete + discarded flush count, got {:?}",
        r.violations
    );
    assert_eq!(
        r.violations.len(),
        3,
        "only durable-ack may fire: {:?}",
        r.violations
    );
    assert_eq!(
        r.waived.iter().filter(|v| v.rule == "durable-ack").count(),
        1,
        "the waived per-op ack must be reported: {:?}",
        r.waived
    );
}

#[test]
fn durable_ack_is_scoped_to_server_sources() {
    // The same source under its real fixture path must stay quiet: R9's
    // patterns (`finish`, `complete`, `flush_batches`) are meaningful only
    // in the server/group-commit crates.
    let vs = lint_fixture("bad_ack_order.rs");
    assert!(
        rule_lines(&vs, "durable-ack").is_empty(),
        "R9 leaked outside its scope: {vs:?}"
    );
}

#[test]
fn guarded_by_rule_fires() {
    // R10 rules are scoped by crate/file, so the fixture lints under the
    // dir.rs label (same trick as the R9 fixture; fixture paths are
    // outside every rule's scope by design).
    let (_, src) = fixture("bad_guarded_by.rs");
    let r = pmlint::analyze_sources(vec![("crates/hart/src/dir.rs".to_string(), src)]);
    let lines = rule_lines(&r.violations, "guarded-by");
    assert_eq!(
        lines.len(),
        2,
        "expected unlocked publish + raw door, got {:?}",
        r.violations
    );
    assert_eq!(
        r.violations.len(),
        2,
        "only guarded-by may fire: {:?}",
        r.violations
    );
    assert_eq!(
        r.waived.iter().filter(|v| v.rule == "guarded-by").count(),
        1,
        "the waived recovery-path publish must be reported, not dropped: {:?}",
        r.waived
    );
}

#[test]
fn guarded_by_is_scoped_to_declared_crates() {
    // The same source under its real fixture path matches no GUARDED_BY
    // entry (crate `pmlint` declares none) and must stay quiet.
    let vs = lint_fixture("bad_guarded_by.rs");
    assert!(
        vs.is_empty(),
        "R10 leaked outside its declared scope: {vs:?}"
    );
}

#[test]
fn atomic_protocol_rule_fires() {
    let (_, src) = fixture("bad_atomic_protocol.rs");
    let r = pmlint::analyze_sources(vec![(
        "crates/server/src/bad_atomic_protocol.rs".to_string(),
        src,
    )]);
    let lines = rule_lines(&r.violations, "atomic-protocol");
    assert_eq!(
        lines.len(),
        2,
        "expected undeclared `ready` + Relaxed sticky-flag store, got {:?}",
        r.violations
    );
    assert_eq!(
        r.violations.len(),
        2,
        "only atomic-protocol may fire: {:?}",
        r.violations
    );
    assert_eq!(
        r.waived
            .iter()
            .filter(|v| v.rule == "atomic-protocol")
            .count(),
        1,
        "the waived Relaxed store must be reported, not dropped: {:?}",
        r.waived
    );
}

#[test]
fn atomic_protocol_is_scoped_to_workspace_crates() {
    // Under the real fixture path the crate is `pmlint`, which is outside
    // R11 scope (the linter's own sources quote atomic idioms in tables
    // and fixtures) — the same file must stay quiet.
    let vs = lint_fixture("bad_atomic_protocol.rs");
    assert!(vs.is_empty(), "R11 leaked outside its scope: {vs:?}");
}

#[test]
fn let_else_guard_holds_to_function_end() {
    // Regression: `let Some(g) = ….try_lock() else { return };` binds the
    // guard in the *enclosing* scope, but hold-range tracking used to
    // close it at the diverging else block's `}` — flagging
    // `finish_migration`'s retirement store as unguarded.
    let src = "\
impl Dir {
    fn finish(&self, next: *mut Table) {
        let Some(st) = self.resize.try_lock() else {
            return;
        };
        self.old.store(next, Ordering::Release);
        drop(st);
    }
}
";
    let vs = pmlint::lint_source("crates/hart/src/dir.rs", src);
    assert!(
        rule_lines(&vs, "guarded-by").is_empty(),
        "let-else guard hold range regressed: {vs:?}"
    );
}

#[test]
fn racer_tables_are_sane() {
    pmlint::racer::table_sanity().expect("racer declaration tables well-formed");
}

#[test]
fn pattern_liveness_all_alive() {
    // Every declaration-table entry (ACQ_PATTERNS, GUARDED_BY,
    // ATOMIC_PROTOCOLS, GUARD_PARAMS) must match at least one workspace
    // site: a rename that kills a pattern must fail here instead of
    // silently disabling the rule (the PR-9 `entries`→`table` retune
    // found that failure mode the hard way).
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let r = pmlint::analyze_workspace(&root);
    assert!(
        r.liveness.len() > 80,
        "liveness table looks truncated: {} rows",
        r.liveness.len()
    );
    let dead: Vec<String> = r
        .liveness
        .iter()
        .filter(|l| l.hits == 0)
        .map(|l| format!("{} entry `{}`", l.table, l.key))
        .collect();
    assert!(
        dead.is_empty(),
        "{} declaration-table entr(ies) match zero sites — a rename \
         blinded a rule; retune the table:\n{}",
        dead.len(),
        dead.join("\n")
    );
}

#[test]
fn pattern_liveness_reports_dead_entries() {
    // The gate above only means something if the counters actually reach
    // zero on non-matching input: lint a trivial source and check every
    // row reports dead rather than defaulting alive.
    let r = pmlint::analyze_sources(vec![(
        "crates/hart/src/lib.rs".to_string(),
        "fn nothing_here() {}\n".to_string(),
    )]);
    assert!(!r.liveness.is_empty(), "liveness rows missing");
    assert!(
        r.liveness.iter().all(|l| l.hits == 0),
        "phantom liveness hits on empty input: {:?}",
        r.liveness
            .iter()
            .filter(|l| l.hits > 0)
            .map(|l| format!("{}/{}", l.table, l.key))
            .collect::<Vec<_>>()
    );
}

#[test]
fn byte_raw_string_does_not_hide_a_missing_persist() {
    // Regression fixture: a `b`-prefix-blind lexer lets the embedded quote
    // flip string state — the literal's `persist(…)` text becomes fake
    // coverage and the dangling state swallows the next function.
    let vs = lint_fixture("bad_byte_rawstring.rs");
    let lines = rule_lines(&vs, "persist-coverage");
    assert_eq!(lines.len(), 2, "expected both uncovered writes: {vs:?}");
    assert_eq!(vs.len(), 2, "only persist-coverage may fire: {vs:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let vs = lint_fixture("good_clean.rs");
    assert!(vs.is_empty(), "clean fixture must lint clean: {vs:?}");
}

#[test]
fn allowlisted_helpers_in_dir_rs_pass() {
    // The fence-paired seqlock idiom is only legal in the audited helpers
    // of dir.rs/optimistic.rs — same code, allowlisted file + fn name.
    let src = "\
impl Shard {
    fn validate(&self, v0: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == v0
    }
    fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }
}
";
    let vs = pmlint::lint_source("crates/hart/src/dir.rs", src);
    let lines = rule_lines(&vs, "relaxed-ordering");
    assert_eq!(
        lines,
        vec![7],
        "validate allowlisted, bare version() not: {vs:?}"
    );
}

#[test]
fn workspace_lints_clean() {
    // CARGO_MANIFEST_DIR = <root>/crates/pmlint.
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    assert!(
        root.join("ROADMAP.md").exists(),
        "mislocated root: {root:?}"
    );
    let (files, vs) = pmlint::lint_workspace(&root);
    assert!(files > 50, "workspace scan looks truncated: {files} files");
    assert!(
        vs.is_empty(),
        "workspace must lint clean, {} violation(s):\n{}",
        vs.len(),
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
