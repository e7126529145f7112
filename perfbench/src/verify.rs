//! Output checking. Every operation the benchmark issues, and every
//! whole-state check it makes, is one attempted item; a wrong result, an
//! error or a refusal makes it a failed one.

use hart_kv::{Key, Value};
use std::collections::BTreeMap;

/// How many failure messages are kept for the report.
const KEEP_MESSAGES: usize = 8;

/// Counts attempted and failed items and keeps the first messages.
#[derive(Debug, Default)]
pub struct Verifier {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Verifier {
    /// Record one item: `Ok` passes, `Err` carries what went wrong.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = r {
            self.failed += 1;
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(msg);
            }
        }
    }

    /// Record one item that passes when `ok` holds.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(what()) });
    }

    /// Fold another verifier's counts into this one.
    pub fn absorb(&mut self, other: Verifier) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(m);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// All items passed (and there was at least one).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed items over attempted items.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// A search must return exactly the expected value.
pub fn check_search(
    key: &Key,
    got: hart_kv::Result<Option<Value>>,
    want: Value,
) -> Result<(), String> {
    match got {
        Ok(Some(v)) if v == want => Ok(()),
        other => Err(format!("search {key:?}: got {other:?}, want {want:?}")),
    }
}

/// An update or delete of a present key must return `true`.
pub fn check_true(what: &str, key: &Key, got: hart_kv::Result<bool>) -> Result<(), String> {
    match got {
        Ok(true) => Ok(()),
        other => Err(format!("{what} {key:?}: got {other:?}, want Ok(true)")),
    }
}

/// A scan's rows must be strictly ascending, inside `[start, end]` and at
/// most `limit` long. With an oracle, they must also equal the oracle's
/// first `limit` rows from `start`.
pub fn check_scan(
    rows: &[(Key, Value)],
    start: &Key,
    end: &Key,
    limit: usize,
    oracle: Option<&BTreeMap<Key, Value>>,
) -> Result<(), String> {
    if rows.len() > limit {
        return Err(format!(
            "scan from {start:?}: {} rows > limit {limit}",
            rows.len()
        ));
    }
    if let Some((k, _)) = rows.iter().find(|(k, _)| k < start || k > end) {
        return Err(format!("scan from {start:?}: row {k:?} out of bounds"));
    }
    if let Some(w) = rows.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(format!(
            "scan from {start:?}: rows out of order at {:?}",
            w[1].0
        ));
    }
    if let Some(oracle) = oracle {
        let want: Vec<(Key, Value)> = oracle
            .range(*start..=*end)
            .take(limit)
            .map(|(k, v)| (*k, *v))
            .collect();
        if rows != want.as_slice() {
            let at = rows.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "scan from {start:?} limit {limit}: {} rows, oracle {} rows, first difference at {at:?}",
                rows.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from_str(s).unwrap()
    }

    #[test]
    fn search_with_corrupted_expectation_fails() {
        let k = key("abc");
        let mut v = Verifier::default();
        v.check(check_search(
            &k,
            Ok(Some(Value::from_u64(7))),
            Value::from_u64(7),
        ));
        v.check(check_search(
            &k,
            Ok(Some(Value::from_u64(7))),
            Value::from_u64(8),
        ));
        assert_eq!((v.attempted(), v.failed()), (2, 1));
        assert!(!v.correct());
        assert_eq!(v.fail_ratio(), 0.5);
    }

    #[test]
    fn scan_checks_order_bounds_limit_and_oracle() {
        let oracle: BTreeMap<Key, Value> = ["a", "b", "c", "d"]
            .iter()
            .enumerate()
            .map(|(i, s)| (key(s), Value::from_u64(i as u64)))
            .collect();
        let rows = |ks: &[&str]| -> Vec<(Key, Value)> {
            ks.iter().map(|s| (key(s), oracle[&key(s)])).collect()
        };
        let (b, z) = (key("b"), key("z"));
        assert!(check_scan(&rows(&["b", "c"]), &b, &z, 2, Some(&oracle)).is_ok());
        assert!(check_scan(&rows(&["b", "c", "d"]), &b, &z, 2, None).is_err());
        assert!(check_scan(&rows(&["c", "b"]), &b, &z, 2, None).is_err());
        assert!(check_scan(&rows(&["a", "b"]), &b, &z, 2, None).is_err());
        assert!(check_scan(&rows(&["b", "d"]), &b, &z, 2, Some(&oracle)).is_err());
        let mut corrupted = oracle.clone();
        corrupted.insert(key("c"), Value::from_u64(99));
        assert!(check_scan(&rows(&["b", "c"]), &b, &z, 2, Some(&corrupted)).is_err());
    }
}
