//! `serve_mlp`: open-loop, seeded Poisson arrivals of zoo-digit requests
//! into `ShardedService` (1 shard × 2 workers, batch 8, no pacing sleeps,
//! certificate-gated ladder), in a `steady` phase at about half the
//! service's capacity and an `overload` phase at about twice it.

use crate::common::{
    ladder, median, ratio, rungs, secs, unit_open, windowed, windowed_rate, EndToEnd, Metrics,
    RunResult, Tally, SETUP_REPEATS,
};
use crate::probes;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tr_analysis::{CertificateTable, ModelSpec};
use tr_bench::zoo::Zoo;
use tr_nn::exec::{
    apply_precision, apply_precision_prepared, calibrate_model, prepare_model_precision,
    try_forward_logits,
};
use tr_nn::io::load_model;
use tr_nn::models::mlp::build_mlp;
use tr_nn::{FakeQuant, Layer, Sequential};
use tr_obs::as_u64_from_u128;
use tr_serve::{
    CertificatePolicy, DeadlineClass, Engine, EngineError, EngineFactory, NnEngine, Outcome,
    ShardedConfig, ShardedService, TenantPolicy,
};
use tr_tensor::{Rng, Shape, Tensor};

/// Offered load of the `steady` phase: about half the parent commit's
/// capacity on the 2-core reference host.
const STEADY_RPS: f64 = 4000.0;
/// Offered load of the `overload` phase: about twice that capacity.
const OVERLOAD_RPS: f64 = 16000.0;
/// Requests served after start-up before the set-up clock stops.
const WARMUP_REQUESTS: usize = 16;
const CLASSES: usize = 10;
const INPUT_DIM: usize = 784;
const WORKERS: usize = 2;
const CALIB_ROWS: usize = 32;
const MODEL_SEED: u64 = 0xCA11;
/// Batch of the per-rung forward probe (the service's `max_batch`).
const PROBE_BATCH: usize = 8;
const PROBE_CALLS: usize = 31;

/// The serve metrics of the traced run; zero on workloads that bypass
/// tr-serve.
pub const LAYER_METRICS: [(&str, &str); 16] = [
    ("serve.batch_size_mean", "count"),
    ("serve.wait_ms_mean", "ms"),
    ("serve.infer_ms_p50", "ms"),
    ("serve.engine_busy_frac", "frac"),
    ("serve.rung_switches", "count"),
    ("serve.set_precision_us_mean", "us"),
    ("serve.rung_cache_hit_frac", "frac"),
    ("serve.rung_share.0", "frac"),
    ("serve.rung_share.1", "frac"),
    ("serve.rung_share.2", "frac"),
    ("serve.rung_share.3", "frac"),
    ("serve.rung_share.4", "frac"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.wasted_frac", "frac"),
    ("serve.gen_lag_ms_max", "ms"),
];

/// What the engine wrapper measured, summed over every replica.
#[derive(Default)]
struct EngineStats {
    built: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
    /// Σ call time × rows in the call: the size-weighted engine time.
    row_ns: AtomicU64,
    switches: AtomicU64,
    switch_ns: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    call_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of [`EngineStats`], for per-pass deltas.
#[derive(Clone, Copy)]
struct StatsMark {
    calls: u64,
    rows: u64,
    busy_ns: u64,
    row_ns: u64,
    switches: u64,
    switch_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    call_samples: usize,
}

impl EngineStats {
    fn mark(&self) -> StatsMark {
        let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
        StatsMark {
            calls: get(&self.calls),
            rows: get(&self.rows),
            busy_ns: get(&self.busy_ns),
            row_ns: get(&self.row_ns),
            switches: get(&self.switches),
            switch_ns: get(&self.switch_ns),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            call_samples: self.call_ns.lock().expect("engine stats lock").len(),
        }
    }
}

impl StatsMark {
    /// What happened between `earlier` and `self`.
    fn since(&self, earlier: &StatsMark) -> StatsMark {
        StatsMark {
            calls: self.calls - earlier.calls,
            rows: self.rows - earlier.rows,
            busy_ns: self.busy_ns - earlier.busy_ns,
            row_ns: self.row_ns - earlier.row_ns,
            switches: self.switches - earlier.switches,
            switch_ns: self.switch_ns - earlier.switch_ns,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            call_samples: self.call_samples - earlier.call_samples,
        }
    }
}

/// Delegates to `NnEngine` and times `try_infer` and `set_precision`, so
/// the benchmark splits request latency into engine time and waiting
/// without touching tr-serve.
struct TimedEngine {
    inner: NnEngine,
    stats: Arc<EngineStats>,
}

impl TimedEngine {
    fn timed<T>(&mut self, rows: usize, call: impl FnOnce(&mut NnEngine) -> T) -> T {
        let t = Instant::now();
        let out = call(&mut self.inner);
        let ns = as_u64_from_u128(t.elapsed().as_nanos());
        let rows = rows as u64;
        let s = &self.stats;
        s.calls.fetch_add(1, Ordering::SeqCst);
        s.rows.fetch_add(rows, Ordering::SeqCst);
        s.busy_ns.fetch_add(ns, Ordering::SeqCst);
        s.row_ns.fetch_add(ns * rows, Ordering::SeqCst);
        s.call_ns.lock().expect("engine stats lock").push(ns);
        out
    }
}

impl Engine for TimedEngine {
    fn set_precision(&mut self, precision: &tr_nn::Precision, cost_factor: f64) {
        let (hits, misses) = self.inner.rung_cache_stats();
        let t = Instant::now();
        self.inner.set_precision(precision, cost_factor);
        let ns = as_u64_from_u128(t.elapsed().as_nanos());
        let (hits2, misses2) = self.inner.rung_cache_stats();
        let s = &self.stats;
        s.switches.fetch_add(1, Ordering::SeqCst);
        s.switch_ns.fetch_add(ns, Ordering::SeqCst);
        s.cache_hits.fetch_add(hits2 - hits, Ordering::SeqCst);
        s.cache_misses.fetch_add(misses2 - misses, Ordering::SeqCst);
    }

    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
        self.timed(inputs.len(), |e| e.infer(inputs))
    }

    fn try_infer(&mut self, inputs: &[&[f32]]) -> Result<Vec<usize>, EngineError> {
        self.timed(inputs.len(), |e| e.try_infer(inputs))
    }

    fn integrity_stats(&self) -> (u64, u64) {
        self.inner.integrity_stats()
    }
}

/// Inputs, labels and the per-rung reference answers, built before any
/// clock starts.
struct Fixture {
    test_x: Tensor,
    labels: Vec<usize>,
    calib: Tensor,
    ckpt: PathBuf,
    /// `reference[rung][image]`: class the model gives the image at the rung.
    reference: Vec<Vec<usize>>,
    /// `ref_nll[rung][image]`: NLL of the image's label at the rung.
    ref_nll: Vec<Vec<f64>>,
}

/// The zoo MLP loaded from its checkpoint and calibrated.
fn load_calibrated(ckpt: &Path, calib: &Tensor) -> Sequential {
    let mut rng = Rng::seed_from_u64(MODEL_SEED);
    let mut model = build_mlp(CLASSES, &mut rng);
    load_model(ckpt, &mut model).expect("zoo MLP checkpoint loads");
    let _span = tr_obs::span("bench.nn.calibrate");
    calibrate_model(&mut model, calib, 8, &mut rng);
    model
}

impl Fixture {
    fn new(zoo: &Zoo) -> Fixture {
        let ds = zoo.digits();
        let calib = ds.train.x.slice_batch(0, CALIB_ROWS);
        let ckpt = zoo.checkpoint_path("mlp");
        // The reference installs each rung directly (`apply_precision`),
        // not through the engine's prepared-rung cache it checks.
        let mut model = load_calibrated(&ckpt, &calib);
        let mut rng = Rng::seed_from_u64(MODEL_SEED);
        let n = ds.test.len();
        let (mut reference, mut ref_nll) = (Vec::new(), Vec::new());
        for p in rungs() {
            apply_precision(&mut model, &p);
            let (mut classes, mut nlls) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for start in (0..n).step_by(50) {
                let end = (start + 50).min(n);
                let logits =
                    try_forward_logits(&mut model, &ds.test.x.slice_batch(start, end), &mut rng)
                        .expect("reference forward");
                for (r, label) in ds.test.y[start..end].iter().enumerate() {
                    classes.push(logits.argmax_row(r));
                    nlls.push(crate::common::nll(logits.row(r), *label));
                }
            }
            reference.push(classes);
            ref_nll.push(nlls);
        }
        Fixture {
            test_x: ds.test.x,
            labels: ds.test.y,
            calib,
            ckpt,
            reference,
            ref_nll,
        }
    }

    fn input(&self, image: usize) -> Vec<f32> {
        self.test_x.row(image).to_vec()
    }

    /// Engine factory: load, calibrate, and encode every rung, so set-up
    /// rather than the first overloaded batch pays for the encodings.
    fn factory(&self, stats: &Arc<EngineStats>) -> EngineFactory {
        let (ckpt, calib, stats) = (self.ckpt.clone(), self.calib.clone(), Arc::clone(stats));
        Arc::new(move || {
            let mut inner = NnEngine::new(
                load_calibrated(&ckpt, &calib),
                INPUT_DIM,
                Duration::ZERO,
                MODEL_SEED,
            );
            for p in rungs().iter().rev() {
                let _span = tr_obs::span("bench.nn.prepare");
                inner.set_precision(p, 1.0);
            }
            stats.built.fetch_add(1, Ordering::SeqCst);
            Box::new(TimedEngine {
                inner,
                stats: Arc::clone(&stats),
            })
        })
    }
}

/// Poll `done` every millisecond for up to `limit`.
fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let t = Instant::now();
    while !done() {
        if t.elapsed() > limit {
            return Err(format!("service did not settle within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn drained(svc: &ShardedService) -> bool {
    let m = svc.metrics_snapshot();
    m.terminal_total() >= m.submitted
}

/// Certify the ladder, start the service, wait until both replicas are
/// built, and serve a few warm-up requests. Returns the service and the
/// set-up time.
fn start(fx: &Fixture, stats: &Arc<EngineStats>) -> Result<(ShardedService, f64), String> {
    let t0 = Instant::now();
    let lad = ladder();
    let certificates = {
        let _span = tr_obs::span("bench.analysis.certify");
        let mut skeleton = build_mlp(CLASSES, &mut Rng::seed_from_u64(MODEL_SEED));
        let spec = ModelSpec::from_layer("mlp", &mut skeleton).map_err(|e| e.to_string())?;
        let table = CertificateTable::certify(&spec, &rungs()).map_err(|e| e.to_string())?;
        CertificatePolicy {
            table: Arc::new(table),
            fingerprint: spec.fingerprint(),
        }
    };
    let cfg = ShardedConfig {
        shards: 1,
        workers_per_shard: WORKERS,
        max_batch: 8,
        ladder: lad,
        tenants: vec![TenantPolicy::new("digits")],
        certificates: Some(certificates),
        ..ShardedConfig::default()
    };
    let built = stats.built.load(Ordering::SeqCst);
    let svc = ShardedService::start(cfg, fx.factory(stats)).map_err(|e| e.to_string())?;
    wait_for(Duration::from_secs(60), || {
        stats.built.load(Ordering::SeqCst) >= built + WORKERS as u64
    })?;
    for i in 0..WARMUP_REQUESTS {
        svc.submit(0, DeadlineClass::Interactive, fx.input(i), None)
            .map_err(|e| format!("warm-up request refused: {e}"))?;
    }
    wait_for(Duration::from_secs(30), || drained(&svc))?;
    Ok((svc, secs(t0)))
}

/// One generated request.
struct Generated {
    due: Instant,
    /// When the generator actually submitted it.
    at: Instant,
    image: usize,
    overload: bool,
}

/// Everything one measured pass observed.
struct Pass {
    e2e: EndToEnd,
    conserved: Result<(), String>,
    ids_in_order: bool,
    rung_served: [u64; 5],
    rejected: u64,
    expired: u64,
    expired_late: u64,
    gen_lag_ms_max: f64,
    /// Mean submit-to-completion latency of completed requests, ms.
    latency_ms_mean: f64,
    wall_s: f64,
    stats: StatsMark,
    call_ns: Vec<u64>,
}

impl Pass {
    /// Conservation held, request ids mapped one-to-one to generated
    /// requests, and every answer matched the reference.
    fn correct(&self) -> bool {
        if let Err(e) = &self.conserved {
            eprintln!("[serve_mlp] conservation violated: {e}");
        }
        self.conserved.is_ok() && self.ids_in_order && self.e2e.tally.failed == 0
    }
}

/// Drive both phases open-loop, then shut the service down and score
/// every request against the reference.
fn measure(
    svc: ShardedService,
    fx: &Fixture,
    stats: &EngineStats,
    seed: u64,
    seconds: f64,
) -> Result<Pass, String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5E7E);
    let deadline = DeadlineClass::Interactive.default_deadline();
    let base = svc.metrics_snapshot().submitted;
    let mark = stats.mark();
    let t_all = Instant::now();
    let mut sent: Vec<Generated> = Vec::new();
    let mut ids_in_order = true;
    let mut phase_starts = [t_all; 2];
    for (phase, (overload, rate)) in [(false, STEADY_RPS), (true, OVERLOAD_RPS)]
        .into_iter()
        .enumerate()
    {
        let start = Instant::now();
        phase_starts[phase] = start;
        let mut t = 0.0;
        loop {
            t += -unit_open(&mut rng).ln() / rate;
            if t >= seconds / 2.0 {
                break;
            }
            let due = start + Duration::from_secs_f64(t);
            let image = rng.below(fx.labels.len());
            let input = fx.input(image);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            if let Ok(id) = svc.submit(0, DeadlineClass::Interactive, input, None) {
                ids_in_order &= id == base + sent.len() as u64;
            }
            sent.push(Generated {
                due,
                at,
                image,
                overload,
            });
        }
        wait_for(Duration::from_secs(30), || drained(&svc))?;
    }
    let wall_s = secs(t_all);
    let stats_end = stats.mark();
    let report = svc.shutdown();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; sent.len()];
    for c in &report.completions {
        if let Some(slot) =
            c.id.checked_sub(base)
                .and_then(|i| outcomes.get_mut(usize::try_from(i).ok()?))
        {
            *slot = Some(c.outcome);
        }
    }
    let mut tally = Tally::default();
    let (mut steady_ms, mut lat_ms) = (Vec::new(), Vec::new());
    let (mut rung_served, mut rejected, mut expired, mut expired_late) = ([0u64; 5], 0, 0, 0);
    let mut overload_done_at = Vec::new();
    let mut gen_lag_ms_max: f64 = 0.0;
    for (s, outcome) in sent.iter().zip(&outcomes) {
        let lag = s.at - s.due;
        gen_lag_ms_max = gen_lag_ms_max.max(lag.as_secs_f64() * 1e3);
        tally.attempted += 1;
        // A request that does not complete misses the latency limit.
        let mut latency = deadline;
        match outcome {
            Some(Outcome::Completed {
                class,
                latency: served_in,
                rung,
                ..
            }) => {
                latency = lag + *served_in;
                lat_ms.push(served_in.as_secs_f64() * 1e3);
                tally.completed += 1;
                tally.degraded += u64::from(*rung > 0);
                rung_served[*rung] += 1;
                if *class != fx.reference[*rung][s.image] {
                    tally.failed += 1;
                }
                tally.score(*class, fx.labels[s.image], fx.ref_nll[*rung][s.image]);
                if s.overload {
                    overload_done_at.push((s.at + *served_in - phase_starts[1]).as_secs_f64());
                }
            }
            Some(Outcome::Rejected(_)) => rejected += 1,
            Some(Outcome::Expired(at)) => {
                expired += 1;
                expired_late += u64::from(matches!(at, tr_serve::ExpiredAt::AfterExecution));
            }
            Some(Outcome::Quarantined) | None => tally.failed += 1,
        }
        if !s.overload {
            steady_ms.push(latency.as_secs_f64() * 1e3);
        }
    }
    let call_ns = stats.call_ns.lock().expect("engine stats lock")
        [mark.call_samples..stats_end.call_samples]
        .to_vec();
    Ok(Pass {
        e2e: EndToEnd {
            setup_s: 0.0,
            p50_ms: windowed(&steady_ms, 0.5),
            p99_ms: windowed(&steady_ms, 0.99),
            goodput_rps: windowed_rate(&overload_done_at, seconds / 2.0),
            tally,
        },
        conserved: report.verify_conservation(),
        ids_in_order,
        rung_served,
        rejected,
        expired,
        expired_late,
        gen_lag_ms_max,
        #[allow(clippy::cast_precision_loss)]
        latency_ms_mean: lat_ms.iter().sum::<f64>() / lat_ms.len().max(1) as f64,
        wall_s,
        stats: stats_end.since(&mark),
        call_ns,
    })
}

/// The tr-serve per-layer metrics of a traced pass.
fn serve_metrics(m: &mut Metrics, p: &Pass) {
    let s = &p.stats;
    #[allow(clippy::cast_precision_loss)]
    let (rows, row_ns, busy_ns, switch_ns) = (
        s.rows as f64,
        s.row_ns as f64,
        s.busy_ns as f64,
        s.switch_ns as f64,
    );
    let engine_ms_weighted = if s.rows == 0 {
        0.0
    } else {
        row_ns / rows / 1e6
    };
    #[allow(clippy::cast_precision_loss)]
    let call_ms: Vec<f64> = p.call_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let served: u64 = p.rung_served.iter().sum();
    m.put("serve.batch_size_mean", ratio(s.rows, s.calls), "count");
    m.put(
        "serve.wait_ms_mean",
        p.latency_ms_mean - engine_ms_weighted,
        "ms",
    );
    m.put("serve.infer_ms_p50", median(&call_ms), "ms");
    #[allow(clippy::cast_precision_loss)]
    m.put(
        "serve.engine_busy_frac",
        busy_ns / 1e9 / (p.wall_s * WORKERS as f64),
        "frac",
    );
    #[allow(clippy::cast_precision_loss)]
    m.put("serve.rung_switches", s.switches as f64, "count");
    #[allow(clippy::cast_precision_loss)]
    m.put(
        "serve.set_precision_us_mean",
        if s.switches == 0 {
            0.0
        } else {
            switch_ns / s.switches as f64 / 1e3
        },
        "us",
    );
    m.put(
        "serve.rung_cache_hit_frac",
        ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        "frac",
    );
    for (i, n) in p.rung_served.iter().enumerate() {
        m.put(format!("serve.rung_share.{i}"), ratio(*n, served), "frac");
    }
    #[allow(clippy::cast_precision_loss)]
    {
        m.put("serve.rejected", p.rejected as f64, "count");
        m.put("serve.expired", p.expired as f64, "count");
    }
    m.put("serve.wasted_frac", ratio(p.expired_late, s.rows), "frac");
    m.put("serve.gen_lag_ms_max", p.gen_lag_ms_max, "ms");
}

/// Zeros for the serve metrics on a workload that bypasses tr-serve.
pub fn zero_metrics(m: &mut Metrics) {
    for (name, unit) in LAYER_METRICS {
        m.put(name, 0.0, unit);
    }
}

/// Per-rung forward time at the service's batch, and the activation
/// transform at the first `Linear`, on a benchmark-owned model.
fn model_probes(m: &mut Metrics, fx: &Fixture, seed: u64) {
    let mut model = load_calibrated(&fx.ckpt, &fx.calib);
    let mut rng = Rng::seed_from_u64(seed ^ 0xF0);
    let rows: Vec<f32> = (0..PROBE_BATCH)
        .flat_map(|_| fx.input(rng.below(fx.labels.len())))
        .collect();
    let x = Tensor::from_vec(rows, Shape::d2(PROBE_BATCH, INPUT_DIM));
    let rungs = rungs();
    let mut samples = Vec::new();
    let mut sites: Vec<(tr_nn::Precision, FakeQuant)> = Vec::new();
    for p in &rungs {
        let prepared = prepare_model_precision(&mut model, p);
        apply_precision_prepared(&mut model, p, &prepared);
        let mut calls = Vec::with_capacity(PROBE_CALLS);
        for _ in 0..=PROBE_CALLS {
            let t = Instant::now();
            std::hint::black_box(
                try_forward_logits(&mut model, &x, &mut rng).expect("probe forward"),
            );
            calls.push(secs(t) * 1e3);
        }
        calls.remove(0);
        samples.push(calls);
        let mut first = None;
        model.visit_quant_sites(&mut |site| {
            first.get_or_insert_with(|| site.fq.clone());
        });
        sites.push((*p, first.expect("the MLP has quantization sites")));
    }
    probes::forward_by_rung(m, &rungs, &samples);
    probes::act_transform(m, &mut sites, &x);
}

/// Run the workload; see `main` for what each mode prints.
pub fn run(zoo: &Zoo, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let fx = Fixture::new(zoo);
    let stats = Arc::new(EngineStats::default());
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(svc) = live.take() {
            let _ = ShardedService::shutdown(svc);
        }
        let (svc, s) = start(&fx, &stats)?;
        setups.push(s);
        live = Some(svc);
    }
    let svc = live.ok_or("no set-up ran")?;
    let mut pass = measure(svc, &fx, &stats, seed, seconds)?;
    pass.e2e.setup_s = median(&setups);
    let mut correct = pass.correct();
    let mut attempted = pass.e2e.tally.attempted;
    let mut failed = pass.e2e.tally.failed;
    if !trace {
        return Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics: pass.e2e.metrics(),
        });
    }
    tr_obs::set_enabled(true);
    tr_obs::recorder().reset();
    let (svc, _) = start(&fx, &stats)?;
    let traced = measure(svc, &fx, &stats, seed, seconds)?;
    let snap = tr_obs::recorder().snapshot();
    tr_obs::set_enabled(false);
    correct &= traced.correct();
    attempted += traced.e2e.tally.attempted;
    failed += traced.e2e.tally.failed;
    let mut m = Metrics::default();
    serve_metrics(&mut m, &traced);
    probes::from_snapshot(&mut m, &snap)?;
    model_probes(&mut m, &fx, seed);
    probes::tensor_kernels(&mut m);
    m.put(
        "obs.overhead_frac",
        1.0 - traced.e2e.goodput_rps / pass.e2e.goodput_rps,
        "frac",
    );
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
