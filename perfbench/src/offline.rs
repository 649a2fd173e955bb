//! The closed-loop offline workloads: one client cycling the five rungs,
//! one call per rung per round.
//!
//! * `offline_cnn`: the zoo ResNet-18 motif on batches of 8 test images,
//!   through `calibrate_model`, `prepare_model_precision`,
//!   `apply_precision_prepared` and `try_forward_logits`;
//! * `lstm_stream`: the zoo LSTM language model on 128-token validation
//!   windows, through `LstmLm::forward`.
//!
//! Each round runs one input through all five rungs. The first rounds
//! take a fixed quality set (80 test images; every non-overlapping
//! validation window) in seeded order, and accuracy and perplexity are
//! scored over those rounds only, so they do not depend on the seed or
//! on speed. Later rounds draw seeded inputs until `--seconds` have
//! passed.

use crate::common::{
    median, nll, rungs, secs, windowed, windowed_rate, EndToEnd, Metrics, RunResult, Tally,
    SETUP_REPEATS,
};
use crate::{probes, serve};
use std::time::Instant;
use tr_analysis::{CertificateTable, ModelSpec};
use tr_bench::zoo::{Zoo, LSTM_HIDDEN, VOCAB};
use tr_core::TrError;
use tr_nn::exec::{
    apply_precision, apply_precision_lstm, apply_precision_prepared, calibrate_lstm,
    calibrate_model, prepare_model_precision, try_forward_logits,
};
use tr_nn::io::{load_lstm, load_model};
use tr_nn::lstm::LstmLm;
use tr_nn::models::CnnKind;
use tr_nn::{prepare_weights, FakeQuant, Layer, Precision, PreparedWeights, Sequential};
use tr_tensor::{Rng, Shape, Tensor};

/// `offline_cnn` quality batches: the first `8 × 10` test images.
const CNN_QUALITY_BATCHES: usize = 10;
/// Images per `offline_cnn` call.
const CNN_BATCH: usize = 8;
/// Tokens per `lstm_stream` call.
const WINDOW: usize = 128;
/// Distinct `lstm_stream` windows drawn per run (calls cycle through them).
const LSTM_POOL: usize = 400;
const CALIB_IMAGES: usize = 32;
const CALIB_TOKENS: usize = 512;
const MODEL_SEED: u64 = 0xCA11;

/// Which offline workload.
#[derive(Clone, Copy)]
pub enum Kind {
    Cnn,
    Lstm,
}

/// One call's input and the labels its logit rows answer.
#[derive(Clone)]
enum Input {
    Images(Tensor),
    Tokens(Vec<usize>),
}

#[derive(Clone)]
struct Call {
    input: Input,
    labels: Vec<usize>,
}

/// A loaded, calibrated model with every rung prepared.
enum Model {
    Cnn(Sequential),
    Lstm(Box<LstmLm>),
}

struct System {
    model: Model,
    rungs: Vec<Precision>,
    prepared: Vec<Vec<PreparedWeights>>,
}

impl Model {
    fn load(kind: Kind, zoo: &Zoo, calib: &Call) -> Model {
        let mut rng = Rng::seed_from_u64(MODEL_SEED);
        match (kind, &calib.input) {
            (Kind::Cnn, Input::Images(x)) => {
                let mut model = CnnKind::ResNet.build(10, &mut rng);
                load_model(&zoo.checkpoint_path(CnnKind::ResNet.name()), &mut model)
                    .expect("zoo ResNet checkpoint loads");
                let _span = tr_obs::span("bench.nn.calibrate");
                calibrate_model(&mut model, x, 8, &mut rng);
                Model::Cnn(model)
            }
            (Kind::Lstm, Input::Tokens(t)) => {
                let mut lm = LstmLm::new(VOCAB, LSTM_HIDDEN, 0.1, &mut rng);
                load_lstm(&zoo.checkpoint_path("lstm"), &mut lm)
                    .expect("zoo LSTM checkpoint loads");
                let _span = tr_obs::span("bench.nn.calibrate");
                calibrate_lstm(&mut lm, t, 8, &mut rng);
                Model::Lstm(Box::new(lm))
            }
            _ => unreachable!("calibration input matches the workload"),
        }
    }

    fn prepare(&mut self, p: &Precision) -> Vec<PreparedWeights> {
        let _span = tr_obs::span("bench.nn.prepare");
        match self {
            Model::Cnn(m) => prepare_model_precision(m, p),
            Model::Lstm(lm) => {
                let mut out = Vec::new();
                lm.visit_quant_sites(&mut |site| out.push(prepare_weights(&site.weight.value, p)));
                out
            }
        }
    }

    fn spec(&mut self) -> Result<ModelSpec, TrError> {
        match self {
            Model::Cnn(m) => ModelSpec::from_layer(CnnKind::ResNet.name(), m),
            Model::Lstm(lm) => ModelSpec::from_lstm("lstm-lm", lm),
        }
    }

    /// Install `p` without the prepared cache (the reference path).
    fn install_direct(&mut self, p: &Precision) {
        match self {
            Model::Cnn(m) => apply_precision(m, p),
            Model::Lstm(lm) => apply_precision_lstm(lm, p),
        }
    }

    fn forward(&mut self, input: &Input, rng: &mut Rng) -> Result<Tensor, TrError> {
        match (self, input) {
            (Model::Cnn(m), Input::Images(x)) => try_forward_logits(m, x, rng),
            (Model::Lstm(lm), Input::Tokens(t)) => Ok(lm.forward(t, false, rng)),
            _ => unreachable!("call input matches the workload"),
        }
    }

    /// What the first quantization site sees for `input`: the images
    /// (stem conv), or the token embeddings (`w_ih`).
    fn first_site_input(&mut self, input: &Input) -> Tensor {
        match (self, input) {
            (Model::Cnn(_), Input::Images(x)) => x.clone(),
            (Model::Lstm(lm), Input::Tokens(t)) => {
                let mut rows = Vec::new();
                lm.visit_params(&mut |name, p| {
                    if name == "embedding" {
                        rows = t
                            .iter()
                            .flat_map(|&tok| p.value.row(tok).to_vec())
                            .collect();
                    }
                });
                Tensor::from_vec(rows, Shape::d2(t.len(), LSTM_HIDDEN))
            }
            _ => unreachable!("call input matches the workload"),
        }
    }

    fn first_site(&mut self) -> FakeQuant {
        let mut first = None;
        let mut grab = |site: tr_nn::QuantSite<'_>| {
            first.get_or_insert_with(|| site.fq.clone());
        };
        match self {
            Model::Cnn(m) => m.visit_quant_sites(&mut grab),
            Model::Lstm(lm) => lm.visit_quant_sites(&mut grab),
        }
        first.expect("zoo models have quantization sites")
    }
}

impl System {
    /// Load, calibrate, prepare every rung, certify the ladder, and warm
    /// each rung with one call: the timed set-up.
    fn setup(kind: Kind, zoo: &Zoo, fx: &Fixture) -> Result<System, String> {
        let mut model = Model::load(kind, zoo, &fx.calib);
        let rungs = rungs();
        let prepared = rungs.iter().map(|p| model.prepare(p)).collect();
        {
            let _span = tr_obs::span("bench.analysis.certify");
            let spec = model.spec().map_err(|e| e.to_string())?;
            let table = CertificateTable::certify(&spec, &rungs).map_err(|e| e.to_string())?;
            for p in &rungs {
                table
                    .check(spec.fingerprint(), &p.label())
                    .map_err(|e| e.to_string())?;
            }
        }
        let mut sys = System {
            model,
            rungs,
            prepared,
        };
        let mut rng = Rng::seed_from_u64(MODEL_SEED);
        for r in 0..sys.rungs.len() {
            sys.install(r);
            sys.model
                .forward(&fx.quality[0].input, &mut rng)
                .map_err(|e| e.to_string())?;
        }
        Ok(sys)
    }

    fn install(&mut self, rung: usize) {
        let (p, prepared) = (&self.rungs[rung], &self.prepared[rung]);
        match &mut self.model {
            Model::Cnn(m) => apply_precision_prepared(m, p, prepared),
            Model::Lstm(lm) => {
                let mut i = 0;
                lm.visit_quant_sites(&mut |site| {
                    site.fq.install_prepared(&prepared[i]);
                    site.fq.install_act_cap(p);
                    i += 1;
                });
            }
        }
    }
}

/// Inputs, calibration data and reference answers, built before any
/// clock starts.
struct Fixture {
    kind: Kind,
    calib: Call,
    /// The scored inputs, one per round, in seeded order.
    quality: Vec<Call>,
    /// Seeded inputs for the rounds after the quality rounds (cycled).
    pool: Vec<Call>,
    /// `reference[rung]`: the logits of the first round's input at each
    /// rung, from a model that installs every rung directly instead of
    /// from the prepared cache. The measured model must match them
    /// exactly.
    reference: Vec<Tensor>,
    /// Activation tensor at the first quantization site, for the probe.
    activation: Tensor,
}

impl Fixture {
    fn new(kind: Kind, zoo: &Zoo, seed: u64) -> Fixture {
        let mut rng = Rng::seed_from_u64(seed ^ 0x0FF1);
        let (calib, mut quality, pool) = match kind {
            Kind::Cnn => {
                let ds = zoo.images();
                let calib = Call {
                    input: Input::Images(ds.train.x.slice_batch(0, CALIB_IMAGES)),
                    labels: Vec::new(),
                };
                let per = ds.test.x.numel() / ds.test.len();
                let dims = ds.test.x.shape().dims().to_vec();
                let batch = |idx: &[usize]| Call {
                    input: Input::Images(Tensor::from_vec(
                        idx.iter()
                            .flat_map(|&i| ds.test.x.data()[i * per..(i + 1) * per].to_vec())
                            .collect(),
                        Shape::d4(idx.len(), dims[1], dims[2], dims[3]),
                    )),
                    labels: idx.iter().map(|&i| ds.test.y[i]).collect(),
                };
                let first: Vec<usize> = (0..CNN_BATCH * CNN_QUALITY_BATCHES).collect();
                let quality: Vec<Call> = first.chunks_exact(CNN_BATCH).map(batch).collect();
                let mut order: Vec<usize> = (0..ds.test.len()).collect();
                rng.shuffle(&mut order);
                let pool: Vec<Call> = order.chunks_exact(CNN_BATCH).map(batch).collect();
                (calib, quality, pool)
            }
            Kind::Lstm => {
                let corpus = zoo.corpus();
                let calib = Call {
                    input: Input::Tokens(corpus.train[..CALIB_TOKENS].to_vec()),
                    labels: Vec::new(),
                };
                let window = |s: usize| Call {
                    input: Input::Tokens(corpus.valid[s..s + WINDOW].to_vec()),
                    labels: corpus.valid[s + 1..=s + WINDOW].to_vec(),
                };
                let starts = corpus.valid.len() - WINDOW;
                let quality: Vec<Call> = (0..starts).step_by(WINDOW).map(window).collect();
                let pool: Vec<Call> = (0..LSTM_POOL).map(|_| window(rng.below(starts))).collect();
                (calib, quality, pool)
            }
        };
        rng.shuffle(&mut quality);
        let mut model = Model::load(kind, zoo, &calib);
        let mut rng = Rng::seed_from_u64(MODEL_SEED);
        let reference = rungs()
            .iter()
            .map(|p| {
                model.install_direct(p);
                model
                    .forward(&quality[0].input, &mut rng)
                    .expect("reference forward")
            })
            .collect();
        let activation = model.first_site_input(&pool[0].input);
        Fixture {
            kind,
            calib,
            quality,
            pool,
            reference,
            activation,
        }
    }

    fn items_per_call(&self) -> usize {
        match self.kind {
            Kind::Cnn => CNN_BATCH,
            Kind::Lstm => WINDOW,
        }
    }
}

/// What one timed pass observed.
struct Pass {
    e2e: EndToEnd,
    /// Per-rung call times, ms.
    by_rung: Vec<Vec<f64>>,
}

fn measure(sys: &mut System, fx: &Fixture, seconds: f64) -> Pass {
    let n_rungs = sys.rungs.len();
    let items = fx.items_per_call() as u64;
    let mut rng = Rng::seed_from_u64(MODEL_SEED);
    let mut tally = Tally::default();
    let mut calls_ms = Vec::new();
    let mut by_rung = vec![Vec::new(); n_rungs];
    let mut done_at = Vec::new();
    let t0 = Instant::now();
    for round in 0.. {
        let quality = fx.quality.get(round);
        if quality.is_none() && secs(t0) >= seconds {
            break;
        }
        let call = quality.unwrap_or_else(|| &fx.pool[(round - fx.quality.len()) % fx.pool.len()]);
        for (rung, rung_ms) in by_rung.iter_mut().enumerate() {
            sys.install(rung);
            let t = Instant::now();
            let out = sys.model.forward(&call.input, &mut rng);
            let ms = secs(t) * 1e3;
            calls_ms.push(ms);
            done_at.push(secs(t0));
            rung_ms.push(ms);
            tally.attempted += items;
            match out {
                Ok(logits) if logits.data().iter().all(|v| v.is_finite()) => {
                    tally.completed += items;
                    if rung > 0 {
                        tally.degraded += items;
                    }
                    if quality.is_some() {
                        for (r, &label) in call.labels.iter().enumerate() {
                            let predicted = logits.argmax_row(r);
                            if round == 0 {
                                tally.failed +=
                                    u64::from(logits.row(r) != fx.reference[rung].row(r));
                            }
                            tally.score(predicted, label, nll(logits.row(r), label));
                        }
                    }
                }
                Ok(_) | Err(_) => tally.failed += items,
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let goodput_rps = windowed_rate(&done_at, secs(t0)) * items as f64;
    Pass {
        e2e: EndToEnd {
            setup_s: 0.0,
            p50_ms: windowed(&calls_ms, 0.5),
            p99_ms: windowed(&calls_ms, 0.99),
            goodput_rps,
            tally,
        },
        by_rung,
    }
}

/// Run the workload; see `main` for what each mode prints.
pub fn run(
    kind: Kind,
    zoo: &Zoo,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let fx = Fixture::new(kind, zoo, seed);
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        sys = Some(System::setup(kind, zoo, &fx)?);
        setups.push(secs(t));
    }
    let mut sys = sys.ok_or("no set-up ran")?;
    let mut pass = measure(&mut sys, &fx, seconds);
    pass.e2e.setup_s = median(&setups);
    let tally = pass.e2e.tally;
    if !trace {
        return Ok(RunResult {
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: pass.e2e.metrics(),
        });
    }
    tr_obs::set_enabled(true);
    tr_obs::recorder().reset();
    let mut traced_sys = System::setup(kind, zoo, &fx)?;
    let traced = measure(&mut traced_sys, &fx, seconds);
    let snap = tr_obs::recorder().snapshot();
    tr_obs::set_enabled(false);
    let failed = tally.failed + traced.e2e.tally.failed;
    let mut m = Metrics::default();
    serve::zero_metrics(&mut m);
    probes::forward_by_rung(&mut m, &sys.rungs, &pass.by_rung);
    probes::from_snapshot(&mut m, &snap)?;
    let mut sites: Vec<(Precision, FakeQuant)> = (0..sys.rungs.len())
        .map(|r| {
            sys.install(r);
            (sys.rungs[r], sys.model.first_site())
        })
        .collect();
    probes::act_transform(&mut m, &mut sites, &fx.activation);
    probes::tensor_kernels(&mut m);
    m.put(
        "obs.overhead_frac",
        1.0 - traced.e2e.goodput_rps / pass.e2e.goodput_rps,
        "frac",
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted: tally.attempted + traced.e2e.tally.attempted,
        failed,
        metrics: m,
    })
}
