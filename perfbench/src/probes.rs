//! Per-layer metrics of the traced run: the `tr_obs` spans and counters a
//! traced pass leaves behind, plus probes that time single calls into
//! tr-tensor and tr-quant from outside.

use crate::common::{median, Metrics, CORE_COUNTERS, LAYERS};
use std::hint::black_box;
use std::time::Instant;
use tr_nn::{FakeQuant, Precision};
use tr_obs::Snapshot;
use tr_tensor::matmul::matmul_into;
use tr_tensor::{im2col_into, Conv2dGeometry, Rng, Shape, Tensor};

/// Samples per probe; each probe reports the median sample.
const SAMPLES: usize = 31;

/// Median over [`SAMPLES`] of the time of `inner` back-to-back calls of
/// `f`, per call, in nanoseconds.
fn probe_ns(inner: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(inner));
    }
    median(&samples)
}

/// Mean milliseconds per call of a benchmark-side span (zero if it never ran).
fn span_mean_ms(snap: &Snapshot, name: &str) -> f64 {
    snap.span(name).filter(|s| s.count > 0).map_or(0.0, |s| {
        #[allow(clippy::cast_precision_loss)]
        let mean = s.total_ns as f64 / s.count as f64;
        mean / 1e6
    })
}

/// Layer self times, set-up spans and tr-core counters from a traced
/// pass. Fails on an `nn.layer.*` span that [`LAYERS`] does not list.
pub fn from_snapshot(m: &mut Metrics, snap: &Snapshot) -> Result<(), String> {
    let forwards = snap.span("nn.forward").map_or(0, |s| s.count);
    for s in &snap.spans {
        if let Some(layer) = s.name.strip_prefix("nn.layer.") {
            if !LAYERS.contains(&layer) {
                return Err(format!("span {} is not a listed layer", s.name));
            }
        }
    }
    for layer in LAYERS {
        let self_ns = snap
            .span(&format!("nn.layer.{layer}"))
            .map_or(0, |s| s.self_ns);
        #[allow(clippy::cast_precision_loss)]
        let per_forward = if forwards == 0 {
            0.0
        } else {
            self_ns as f64 / forwards as f64 / 1e6
        };
        m.put(format!("nn.layer_self_ms.{layer}"), per_forward, "ms");
    }
    m.put(
        "nn.prepare_ms",
        span_mean_ms(snap, "bench.nn.prepare"),
        "ms",
    );
    m.put(
        "nn.calibrate_ms",
        span_mean_ms(snap, "bench.nn.calibrate"),
        "ms",
    );
    m.put(
        "analysis.certify_ms",
        span_mean_ms(snap, "bench.analysis.certify"),
        "ms",
    );
    for name in CORE_COUNTERS {
        #[allow(clippy::cast_precision_loss)]
        m.put(name, snap.counter(name) as f64, "count");
    }
    Ok(())
}

/// `FakeQuant::transform_input` per activation value at each rung, on an
/// activation tensor the workload captured at its first quantization
/// site. `sites` pairs each rung with that site's installed quantizer.
pub fn act_transform(m: &mut Metrics, sites: &mut [(Precision, FakeQuant)], x: &Tensor) {
    #[allow(clippy::cast_precision_loss)]
    let values = x.numel() as f64;
    for (p, fq) in sites.iter_mut() {
        let ns = probe_ns(4, || {
            black_box(fq.transform_input(black_box(x)));
        });
        m.put(
            format!("quant.act_transform_ns_per_value.{}", p.label()),
            ns / values,
            "ns",
        );
    }
}

/// tr-tensor kernels at each workload's dominant site: the MLP's first
/// `Linear` (batch 8), the ResNet's stage-1 3x3 conv (one image, as the
/// conv loop runs it) and one LSTM gate matmul, plus that conv's im2col.
/// Each kernel is the one the site calls.
pub fn tensor_kernels(m: &mut Metrics) {
    let mut rng = Rng::seed_from_u64(0x7E45);
    for (mm, k, n) in [(8usize, 784usize, 512usize), (1, 64, 256)] {
        let a = Tensor::randn(Shape::d2(mm, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(n, k), 1.0, &mut rng);
        let inner = if mm == 1 { 256 } else { 2 };
        let ns = probe_ns(inner, || {
            black_box(black_box(&a).matmul_transb(black_box(&b)));
        });
        m.put(format!("tensor.gemm_ms.{mm}x{k}x{n}"), ns / 1e6, "ms");
    }
    let g = Conv2dGeometry {
        in_channels: 16,
        in_h: 32,
        in_w: 32,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    let (cout, patch, np) = (16usize, g.patch_len(), g.n_patches());
    let img = Tensor::randn(Shape::d3(16, 32, 32), 1.0, &mut rng);
    let w = Tensor::randn(Shape::d2(cout, patch), 1.0, &mut rng);
    let mut cols = Vec::new();
    im2col_into(img.data(), &g, &mut cols);
    let mut out = vec![0.0f32; cout * np];
    let ns = probe_ns(2, || {
        out.fill(0.0);
        matmul_into(
            black_box(w.data()),
            black_box(&cols),
            &mut out,
            cout,
            patch,
            np,
        );
        black_box(&out);
    });
    m.put(
        format!("tensor.gemm_ms.{cout}x{patch}x{np}"),
        ns / 1e6,
        "ms",
    );
    let ns = probe_ns(8, || {
        im2col_into(black_box(img.data()), &g, &mut cols);
        black_box(&cols);
    });
    m.put("tensor.im2col_ms", ns / 1e6, "ms");
}

/// Median per-call forward time of each rung, from per-call samples.
pub fn forward_by_rung(m: &mut Metrics, rungs: &[Precision], samples: &[Vec<f64>]) {
    for (p, s) in rungs.iter().zip(samples) {
        m.put(format!("nn.forward_ms.{}", p.label()), median(s), "ms");
    }
}
