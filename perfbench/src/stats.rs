//! Order statistics and the metric sheet every run fills in.

/// Linear-interpolated quantile `q` (0..=1) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// A timing distribution reported the way the benchmark reports every
/// timing: its median plus a tail percentile, with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    /// Value at quantile `q`.
    pub tail: f64,
    pub q: f64,
    pub n: usize,
}

impl Tail {
    /// Summarize `values` at the requested tail quantile.
    pub fn of(values: &mut [f64], q: f64) -> Tail {
        values.sort_by(f64::total_cmp);
        Tail {
            p50: quantile(values, 0.5),
            tail: quantile(values, q),
            q,
            n: values.len(),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every number one run measured, in the order it was measured.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A timing's median and tail under `<prefix>_p50_<unit>` and
    /// `<prefix>_p<q>_<unit>`, plus its sample count.
    pub fn put_tail(&mut self, prefix: &str, t: &Tail, unit: &'static str) {
        let pct = (t.q * 100.0).round() as u32;
        self.put(&format!("{prefix}_p50_{unit}"), t.p50, unit);
        self.put(&format!("{prefix}_p{pct}_{unit}"), t.tail, unit);
        self.put(&format!("{prefix}_samples"), t.n as f64, "count");
    }
}

/// `x / y`, or 0 when nothing was counted.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        let mut w = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut w), 3.0);
    }

    #[test]
    fn tail_sorts_and_counts() {
        let mut v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = Tail::of(&mut v, 0.99);
        assert_eq!(t.n, 1000);
        assert_eq!(t.p50, 499.5);
        assert!(t.tail > 985.0 && t.tail < 990.0);
    }
}
