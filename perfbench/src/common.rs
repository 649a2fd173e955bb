//! Pieces every workload shares: the rung ladder, the zoo, statistics,
//! and the metric list a run prints.

use std::path::PathBuf;
use std::time::Instant;
use tr_bench::zoo::Zoo;
use tr_nn::models::CnnKind;
use tr_nn::Precision;
use tr_serve::LadderConfig;
use tr_tensor::Rng;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The default serve ladder; rung `i` of every workload is rung `i` here.
pub fn ladder() -> LadderConfig {
    LadderConfig::default_tr_ladder()
}

/// The ladder's precisions, best quality first.
pub fn rungs() -> Vec<Precision> {
    ladder().rungs.iter().map(|r| r.precision).collect()
}

/// The zoo cache inside the checkout: next to the build output, so one
/// ignore rule covers both and a fresh checkout trains once.
pub fn zoo() -> Zoo {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let zoo = Zoo::at(target.join("perfbench-zoo"));
    // Training a cold zoo is a one-off cache fill, never part of a
    // measurement: fill all three checkpoints whichever workload runs
    // first, so no later run pays for training.
    let names = ["mlp", "lstm", CnnKind::ResNet.name()];
    if !names.iter().all(|n| zoo.checkpoint_path(n).exists()) {
        eprintln!("[perfbench] training the zoo in {}", zoo.dir().display());
        let _ = zoo.mlp();
        let _ = zoo.lstm();
        let _ = zoo.cnn(CnnKind::ResNet);
    }
    zoo
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Quantile `q` of `v` by linear interpolation between order statistics
/// (the convention of Python's `statistics.quantiles(..., method="inclusive")`).
/// Zero for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    s[lo] + (s[hi] - s[lo]) * frac
}

/// Median of `v` (zero when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Windows [`windowed`] splits a run's samples into.
const WINDOWS: usize = 10;

/// Quantile `q` of each of ten consecutive windows of `v` (in time
/// order), then the median of those: one host hiccup moves one window,
/// not the reported tail. Plain [`quantile`] when there are fewer
/// samples than windows.
pub fn windowed(v: &[f64], q: f64) -> f64 {
    if v.len() < WINDOWS {
        return quantile(v, q);
    }
    let per: Vec<f64> = (0..WINDOWS)
        .map(|w| quantile(&v[w * v.len() / WINDOWS..(w + 1) * v.len() / WINDOWS], q))
        .collect();
    median(&per)
}

/// Events per second: `at` holds event times in seconds from the start
/// of a `span`-second interval. The events are cut into ten runs of
/// equal count and the median run rate is reported, so a hiccup costs
/// one run. Events outside the interval are not counted.
pub fn windowed_rate(at: &[f64], span: f64) -> f64 {
    let mut t: Vec<f64> = at
        .iter()
        .copied()
        .filter(|t| (0.0..span).contains(t))
        .collect();
    t.sort_by(f64::total_cmp);
    if t.len() < WINDOWS {
        #[allow(clippy::cast_precision_loss)]
        return t.len() as f64 / span;
    }
    let rates: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (w * t.len() / WINDOWS, (w + 1) * t.len() / WINDOWS);
            let from = if lo == 0 { 0.0 } else { t[lo - 1] };
            #[allow(clippy::cast_precision_loss)]
            let n = (hi - lo) as f64;
            n / (t[hi - 1] - from).max(f64::MIN_POSITIVE)
        })
        .collect();
    median(&rates)
}

/// `num / den`, or zero when nothing was counted.
#[allow(clippy::cast_precision_loss)]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Negative log-likelihood of class `label` under one row of logits
/// (a numerically stable log-softmax).
pub fn nll(logits: &[f32], label: usize) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum: f64 = logits.iter().map(|&v| f64::from(v - max).exp()).sum();
    sum.ln() - f64::from(logits[label] - max)
}

/// A uniform draw in `(0, 1]` with full `f64` resolution.
#[allow(clippy::cast_precision_loss)]
pub fn unit_open(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The metrics one run prints, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Quality and outcome tallies an offline or serve pass accumulates.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    /// Items (digits, images, tokens) attempted.
    pub attempted: u64,
    /// Items answered.
    pub completed: u64,
    /// Items answered below rung 0.
    pub degraded: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Answers scored for quality.
    pub scored: u64,
    /// Scored answers equal to the label.
    pub hits: u64,
    /// Summed negative log-likelihood of the labels over scored answers.
    pub nll: f64,
}

impl Tally {
    /// Score one answered item against its label.
    pub fn score(&mut self, predicted: usize, label: usize, nll: f64) {
        self.scored += 1;
        self.hits += u64::from(predicted == label);
        self.nll += nll;
    }

    /// Top-1 accuracy over scored answers.
    pub fn accuracy(&self) -> f64 {
        ratio(self.hits, self.scored)
    }

    /// `exp(mean NLL)` over scored answers.
    #[allow(clippy::cast_precision_loss)]
    pub fn perplexity(&self) -> f64 {
        (self.nll / self.scored.max(1) as f64).exp()
    }
}

/// What a workload hands back to `main`.
pub struct RunResult {
    /// Every check on the outputs passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Metrics,
}

/// The end-to-end metrics, shared by every workload.
pub struct EndToEnd {
    pub setup_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub goodput_rps: f64,
    pub tally: Tally,
}

impl EndToEnd {
    /// The end-to-end metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let t = &self.tally;
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("p50_ms", self.p50_ms, "ms");
        m.put("p99_ms", self.p99_ms, "ms");
        m.put("goodput_rps", self.goodput_rps, "1/s");
        m.put("completed_frac", ratio(t.completed, t.attempted), "frac");
        m.put("degraded_frac", ratio(t.degraded, t.completed), "frac");
        m.put("accuracy", t.accuracy(), "frac");
        m.put("perplexity", t.perplexity(), "ppl");
        m
    }
}

/// The tr-core counters the traced run reports.
pub const CORE_COUNTERS: [&str; 6] = [
    "core.matmul.calls",
    "core.matmul.route.serial",
    "core.matmul.route.parallel",
    "core.matmul.route.bitplane",
    "core.matmul.route.bitplane_blocked",
    "core.bitplane.pairs",
];

/// Every `nn.layer.*` span name the zoo MLP and ResNet emit. A span not
/// in this list fails the run, so a renamed layer cannot drop out of the
/// per-layer metrics unnoticed.
pub const LAYERS: [&str; 19] = [
    "linear512x784",
    "relu",
    "dropout0.2",
    "linear10x512",
    "conv16x3k3",
    "bn16",
    "residual",
    "conv16x16k3",
    "conv32x16k3",
    "bn32",
    "conv32x32k3",
    "conv32x16k1",
    "conv64x32k3",
    "bn64",
    "conv64x64k3",
    "conv64x32k1",
    "gap",
    "flatten",
    "linear10x64",
];
