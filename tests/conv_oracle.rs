//! The integer conv path against a spelled-out oracle, and its dynamic
//! extraction semantics against the Fake engine.
//!
//! The engine lowers a conv activation's low feature groups once, in the
//! quantized `[C, H, W]` planes, before im2col. The oracle here runs the
//! textbook order instead — quantize → im2col → lower each low band's
//! rows → reference GEMM → shift-accumulate → requant — one input
//! channel at a time, with the naive [`gemm::reference`] kernels. With
//! calibrated (static) or naive extraction positions the two must agree
//! **bit for bit**, single-sample and batched, with and without the
//! prepacked-weight cache, at all-high, all-low and mixed plans, across
//! strides 1/2, 1×1/3×3, grouped and depthwise shapes.
//!
//! Dynamic extraction derives each feature group's position from that
//! group's quantized activations across the whole batch. The Fake engine
//! states that rule directly, so the Int engine must match it up to f32
//! summation order, layer by layer.

use std::sync::Arc;

use flexiq::nn::calibrate::calibrate_default;
use flexiq::nn::exec::{self, Compute};
use flexiq::nn::graph::{Graph, LayerId, LayerView};
use flexiq::nn::ops::Conv2d;
use flexiq::nn::qexec::{
    ExecMode, MixedPlan, PackCache, QuantCompute, QuantExecOptions, QuantizedModel,
};
use flexiq::quant::lowering::BitLowering;
use flexiq::quant::{GroupSpec, QuantBits};
use flexiq::tensor::gemm::reference;
use flexiq::tensor::im2col::im2col_i8;
use flexiq::tensor::rng::seeded;
use flexiq::tensor::{stats, Tensor};

/// Channel scales spanning ~5 bits, so static extraction positions (and
/// dynamic ones) differ between feature groups.
fn channel_scales(c: usize) -> Vec<f32> {
    (0..c).map(|i| [0.04, 1.0, 0.2, 0.6, 0.01][i % 5]).collect()
}

/// `n` stacked `[c, h, w]` samples with per-channel scales.
fn inputs(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    Tensor::randn_axis_scaled([n, c, h, w], 1, &channel_scales(c), &mut rng).unwrap()
}

fn conv(c_in: usize, c_out: usize, k: usize, stride: usize, groups: usize, seed: u64) -> Conv2d {
    let mut rng = seeded(seed);
    let w = Tensor::randn([c_out, c_in / groups, k, k], 0.0, 0.5, &mut rng);
    let bias = (seed % 2 == 0).then(|| (0..c_out).map(|o| 0.01 * o as f32).collect());
    Conv2d::new(w, bias, stride, k / 2, groups).unwrap()
}

/// Plans to pin: all-high, all-low, and two interleaved mixes.
fn plans(model: &QuantizedModel) -> Vec<MixedPlan> {
    let mut even = MixedPlan::all_high(model);
    let mut odd = MixedPlan::all_high(model);
    for (l, lq) in model.layers.iter().enumerate() {
        for g in 0..lq.num_groups() {
            even.low_groups[l][g] = g % 2 == 0;
            odd.low_groups[l][g] = g % 2 == 1;
        }
    }
    vec![
        MixedPlan::all_high(model),
        MixedPlan::all_low(model),
        even,
        odd,
    ]
}

/// One sample of layer `l` through the textbook pipeline (see the module
/// docs). Returns `[c_out, oh, ow]` flattened.
fn oracle_conv(
    model: &QuantizedModel,
    plan: &MixedPlan,
    opts: QuantExecOptions,
    l: LayerId,
    conv: &Conv2d,
    x: &[f32],
    (h, w): (usize, usize),
) -> Vec<f32> {
    let lq = &model.layers[l];
    let rule = |static_rule: BitLowering| {
        if opts.naive_lowering {
            BitLowering::naive(QuantBits::B8, opts.low_bits)
        } else {
            static_rule
        }
    };
    // Eq. 1 with `f32::round` (half away from zero) and an integer clip.
    let q: Vec<i8> = x
        .iter()
        .map(|&v| ((v / lq.act_scale).round() as i64).clamp(-128, 127) as i8)
        .collect();
    let geom = conv.group_geometry(h, w);
    let (k, cols) = (geom.rows(), geom.cols());
    let khkw = conv.kh() * conv.kw();
    let c_in_g = conv.weight.dims()[1];
    let c_out_g = conv.c_out() / conv.groups;
    let wq = lq.w_q.data();
    let mut out = vec![0.0f32; conv.c_out() * cols];
    for cg in 0..conv.groups {
        let lowered = im2col_i8(&q[cg * c_in_g * h * w..(cg + 1) * c_in_g * h * w], &geom);
        let wband = &wq[cg * c_out_g * k..(cg + 1) * c_out_g * k];
        let mut acc = vec![0i32; c_out_g * cols];
        // Integer sums are exact, so one band per input channel gives
        // the same accumulator as one band per feature-group run.
        for cl in 0..c_in_g {
            let g = model.groups.group_of(cg * c_in_g + cl);
            let (k0, k1) = (cl * khkw, (cl + 1) * khkw);
            if !plan.low_groups[l][g] {
                reference::gemm_i8_band(c_out_g, cols, k, k0, k1, wband, &lowered, &mut acc);
                continue;
            }
            let a_rule = rule(lq.act_lowering(g, opts.low_bits));
            let xb: Vec<i8> = lowered[k0 * cols..k1 * cols]
                .iter()
                .map(|&v| a_rule.lower(v))
                .collect();
            for ol in 0..c_out_g {
                let w_rule = rule(lq.w_lowering(g, cg * c_out_g + ol, opts.low_bits));
                let wb: Vec<i8> = wband[ol * k + k0..ol * k + k1]
                    .iter()
                    .map(|&v| w_rule.lower(v))
                    .collect();
                let mut part = vec![0i32; cols];
                reference::gemm_i8(1, cols, khkw, &wb, &xb, &mut part);
                let shift = a_rule.shift() + w_rule.shift();
                for (a, p) in acc[ol * cols..(ol + 1) * cols].iter_mut().zip(&part) {
                    *a += p << shift;
                }
            }
        }
        for ol in 0..c_out_g {
            let o = cg * c_out_g + ol;
            let s = lq.act_scale * lq.w_scales[o];
            for j in 0..cols {
                let mut v = acc[ol * cols + j] as f32 * s;
                if let Some(b) = &conv.bias {
                    v += b[o];
                }
                out[o * cols + j] = v;
            }
        }
    }
    out
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// A one-conv graph, calibrated and quantized at `group` channels per
/// feature group.
fn single_conv_model(
    conv: Conv2d,
    hw: (usize, usize),
    group: usize,
    seed: u64,
) -> (Graph, QuantizedModel) {
    let c_in = conv.c_in();
    let mut g = Graph::new("oracle");
    let x = g.input();
    let y = g.conv2d(x, conv).unwrap();
    g.set_output(y).unwrap();
    let calib = inputs(6, c_in, hw.0, hw.1, seed ^ 0xCA11B);
    let samples: Vec<Tensor> = (0..6).map(|i| calib.index_axis0(i).unwrap()).collect();
    let cal = calibrate_default(&g, &samples).unwrap();
    let model = QuantizedModel::prepare(&g, &cal, GroupSpec::new(group)).unwrap();
    (g, model)
}

#[test]
fn int_conv_bit_equals_the_im2col_then_lower_oracle() {
    // (conv, input h×w, feature-group size). The group sizes are chosen
    // to cut across conv groups as well as inside them.
    let cases = [
        (conv(8, 6, 3, 1, 1, 10), (7, 6), 3),
        (conv(8, 5, 3, 2, 1, 11), (9, 8), 2),
        (conv(6, 7, 1, 1, 1, 12), (5, 7), 4),
        (conv(6, 4, 1, 2, 1, 13), (7, 7), 2),
        (conv(8, 8, 3, 1, 8, 14), (6, 5), 2),
        (conv(8, 8, 3, 2, 8, 15), (7, 9), 4),
        (conv(8, 6, 3, 1, 2, 16), (6, 6), 3),
    ];
    let n = 3;
    for (ci, (cv, (h, w), group)) in cases.into_iter().enumerate() {
        let seed = 100 + ci as u64;
        let (graph, model) = single_conv_model(cv.clone(), (h, w), group, seed);
        let x = inputs(n, cv.c_in(), h, w, seed);
        let chw = cv.c_in() * h * w;
        for naive_lowering in [false, true] {
            let opts = QuantExecOptions {
                mode: ExecMode::Int,
                naive_lowering,
                ..Default::default()
            };
            for (pi, plan) in plans(&model).into_iter().enumerate() {
                let want: Vec<Vec<f32>> = (0..n)
                    .map(|s| {
                        let xs = &x.data()[s * chw..(s + 1) * chw];
                        oracle_conv(&model, &plan, opts, 0, &cv, xs, (h, w))
                    })
                    .collect();
                let what = format!("case {ci}, plan {pi}, naive {naive_lowering}");
                for cache in [None, Some(Arc::new(PackCache::new()))] {
                    let mut hook =
                        QuantCompute::with_cache(&model, plan.clone(), opts, cache).unwrap();
                    for (s, want_s) in want.iter().enumerate() {
                        let xs = x.index_axis0(s).unwrap();
                        let y = exec::run(&graph, &xs, &mut hook).unwrap();
                        assert_bits_eq(y.data(), want_s, &format!("{what}, sample {s}"));
                    }
                    let yb = exec::run_batch(&graph, &x, &mut hook).unwrap();
                    assert_bits_eq(yb.data(), &want.concat(), &format!("{what}, batched"));
                }
            }
        }
    }
}

#[test]
fn dynamic_int_conv_matches_fake_per_feature_group() {
    // 3×3 s1 → 3×3 s2 → 1×1 s2 → depthwise 3×3; feature groups of 4
    // channels span 4 depthwise conv groups, and the stride-2 1×1 conv
    // skips input pixels — the two shapes where a rule computed per
    // im2col band would differ from one computed per feature group.
    let mut g = Graph::new("dyn");
    let x = g.input();
    let c1 = g.conv2d(x, conv(4, 8, 3, 1, 1, 20)).unwrap();
    let r1 = g.relu(c1).unwrap();
    let c2 = g.conv2d(r1, conv(8, 8, 3, 2, 1, 21)).unwrap();
    let r2 = g.relu(c2).unwrap();
    let c3 = g.conv2d(r2, conv(8, 8, 1, 2, 1, 22)).unwrap();
    let c4 = g.conv2d(c3, conv(8, 8, 3, 1, 8, 23)).unwrap();
    g.set_output(c4).unwrap();
    let calib = inputs(6, 4, 12, 12, 0xD1);
    let samples: Vec<Tensor> = (0..6).map(|i| calib.index_axis0(i).unwrap()).collect();
    let cal = calibrate_default(&g, &samples).unwrap();
    let model = QuantizedModel::prepare(&g, &cal, GroupSpec::new(4)).unwrap();
    let opts = |mode| QuantExecOptions {
        mode,
        dynamic_extract: true,
        ..Default::default()
    };
    // Each layer sees the same random input under both engines, so the
    // comparison is per layer, free of cross-layer rounding drift. These
    // inputs are not the calibration activations, so dynamic positions
    // depart from the static ones.
    for (pi, plan) in plans(&model).into_iter().enumerate() {
        let mut int = QuantCompute::new(&model, plan.clone(), opts(ExecMode::Int)).unwrap();
        let mut fake = QuantCompute::new(&model, plan, opts(ExecMode::Fake)).unwrap();
        for l in 0..model.num_layers() {
            let LayerView::Conv(cv) = g.layer(l).unwrap() else {
                panic!("layer {l} is not a conv");
            };
            let n = 3;
            let x = inputs(n, cv.c_in(), 10, 9, 0xD2 + l as u64);
            let what = format!("plan {pi}, layer {l}");
            let yi = int.conv2d_batch(l, cv, &x, n).unwrap();
            let yf = fake.conv2d_batch(l, cv, &x, n).unwrap();
            assert_close(yi.data(), yf.data(), &format!("{what}, batched"));
            let x0 = x.index_axis0(0).unwrap();
            let yi = int.conv2d(l, cv, &x0).unwrap();
            let yf = fake.conv2d(l, cv, &x0).unwrap();
            assert_close(yi.data(), yf.data(), &format!("{what}, single"));
        }
    }
}

fn assert_close(int: &[f32], fake: &[f32], what: &str) {
    let rel = stats::l2_distance(fake, int) / stats::l2_norm(int).max(1e-6);
    assert!(rel < 1e-5, "{what}: Int vs Fake relative error {rel}");
}
