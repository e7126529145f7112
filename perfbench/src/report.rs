//! Metric collection, percentiles and the result formats: a human-readable
//! table, a result file with the run's stamps, and the one-line JSON
//! summary that ends standard output.

use hart_obs::Json;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean.
    pub samples: Option<u64>,
    /// True for counts that do not depend on timing: the same seed must
    /// reproduce them bit for bit.
    pub exact: bool,
}

/// An ordered set of metrics; names are unique.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn put(&mut self, m: Metric) {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        assert!(
            self.get(&m.name).is_none(),
            "metric {} reported twice",
            m.name
        );
        self.0.push(m);
    }

    /// A measured number.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            exact: false,
        });
    }

    /// A measured number with the sample count behind it.
    pub fn set_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: u64) {
        self.put(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
            exact: false,
        });
    }

    /// A count; `exact` when it does not depend on timing or scheduling.
    pub fn set_count(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        exact: bool,
    ) {
        self.put(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            exact,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Latency samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consecutive slices of at least `MIN_SLICE` samples, at most
    /// `MAX_SLICES` of them.
    fn slices(&self) -> std::slice::Chunks<'_, u64> {
        let k = (self.0.len() / MIN_SLICE).clamp(1, MAX_SLICES);
        self.0.chunks(self.0.len().div_ceil(k))
    }

    /// Median over time-ordered slices of each slice's nearest-rank
    /// `q`-quantile, in ns. On a host whose speed drifts by tens of
    /// percent from second to second, this is far steadier than the
    /// quantile of the pooled samples, while a tail that every slice
    /// shows still shows.
    pub fn sliced_quantile_ns(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of no samples");
        let per_slice = self
            .slices()
            .map(|c| {
                let mut c = c.to_vec();
                let rank = ((q * c.len() as f64).ceil() as usize).clamp(1, c.len());
                *c.select_nth_unstable(rank - 1).1 as f64
            })
            .collect();
        median(per_slice)
    }

    /// Median over time-ordered slices of each slice's mean, in ns.
    pub fn sliced_mean_ns(&self) -> f64 {
        assert!(!self.0.is_empty(), "mean of no samples");
        let per_slice = self
            .slices()
            .map(|c| c.iter().map(|&x| x as f64).sum::<f64>() / c.len() as f64)
            .collect();
        median(per_slice)
    }

    /// Nearest-rank quantile of all samples; `q` in `(0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!(!self.0.is_empty(), "quantile of no samples");
        let mut c = self.0.clone();
        let rank = ((q * c.len() as f64).ceil() as usize).clamp(1, c.len());
        *c.select_nth_unstable(rank - 1).1
    }

    /// Set `<op>_p<q>_us` (sliced median) with the sample count.
    pub fn report(&self, m: &mut Metrics, op: &str, q: u32) {
        let v = self.sliced_quantile_ns(q as f64 / 100.0) / 1e3;
        m.set_n(format!("{op}_p{q}_us"), v, "us", self.len() as u64);
    }
}

/// Smallest slice a sliced statistic uses: a p99 over it has at least ten
/// samples beyond it.
pub const MIN_SLICE: usize = 1000;
/// Most slices a sliced statistic uses.
pub const MAX_SLICES: usize = 25;

/// Median of a non-empty list.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn name_unit_value(m: &Metric) -> Vec<(String, Json)> {
    vec![
        ("value".into(), Json::f64(m.value)),
        ("unit".into(), Json::Str(m.unit.into())),
    ]
}

/// The one-line summary the benchmark ends with.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), Json::Obj(name_unit_value(m))))
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

/// Metrics with units, sample counts and exactness, for the result file.
pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::Arr(
        metrics
            .0
            .iter()
            .map(|m| {
                let mut o = vec![("name".into(), Json::Str(m.name.clone()))];
                o.extend(name_unit_value(m));
                o.push(("samples".into(), m.samples.map_or(Json::Null, Json::u64)));
                o.push(("exact".into(), Json::Bool(m.exact)));
                Json::Obj(o)
            })
            .collect(),
    )
}

/// Human-readable table, one metric a line.
pub fn table(metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in &metrics.0 {
        let _ = write!(out, "  {:<44} {:>16.4} {:<6}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(out, " n={n}");
        }
        if m.exact {
            out.push_str(" exact");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for x in (1..=100).rev() {
            s.push(x);
        }
        assert_eq!(s.quantile_ns(0.5), 50);
        assert_eq!(s.quantile_ns(0.99), 99);
        assert_eq!(s.quantile_ns(1.0), 100);
    }

    #[test]
    fn sliced_statistics_ignore_one_slow_slice() {
        let mut s = Samples::default();
        for slice in 0..5 {
            let base = if slice == 2 { 10_000 } else { 100 };
            for x in 0..MIN_SLICE as u64 {
                s.push(base + x % 10);
            }
        }
        assert_eq!(s.sliced_quantile_ns(0.5), 104.0);
        assert_eq!(s.sliced_quantile_ns(0.99), 109.0);
        assert_eq!(s.sliced_mean_ns(), 104.5);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set_count("count", 3.0, "count", true);
        let line = summary_line(true, 4, 0, &m);
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(4));
        let lat = j.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        assert_eq!(lat.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(lat.get("unit"), Some(&Json::Str("ms".into())));
    }
}
