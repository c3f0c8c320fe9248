//! Mixed-precision quantized execution (§4, §7).
//!
//! A [`QuantizedModel`] holds the static 8-bit state of every quantizable
//! layer: integer master weights with per-output-channel scales, a
//! per-tensor activation scale, and the calibrated per-feature-group
//! maxima that determine bit-extraction positions. A [`MixedPlan`] says
//! which feature groups run at 4 bits; the plan is the *only* thing that
//! changes when the serving runtime adjusts its low-bitwidth ratio.
//!
//! Two execution paths are provided:
//!
//! * [`ExecMode::Int`] — the functional path: real `i8` GEMM bands per
//!   feature group, bit-extracted 4-bit operands, and bit-shifted `i32`
//!   accumulation, exactly as the paper's GPU kernel and NPU datapath
//!   operate. Used to validate the arithmetic.
//! * [`ExecMode::Fake`] — the fast path: weights and activations are
//!   replaced by their reconstruction (`dequantize(lower(quantize(x)))`)
//!   and the layer runs in f32. Produces the same results up to f32
//!   summation order; used for accuracy experiments and fitness
//!   evaluation in the channel-selection loop.
//!
//! # Batched execution
//!
//! Both paths implement the batched [`Compute`] hooks: a stacked
//! `[N, …]` activation is quantized **once per layer per batch**, the
//! per-group bit-lowered weight blocks are built once per batch (instead
//! of once per sample), and the band GEMMs run column-batched across all
//! samples. Integer convs lower their low feature groups' activation
//! planes in place *before* im2col, so each element is lowered once, not
//! once per kernel tap, and a low band's GEMM reads its im2col rows
//! directly. With calibrated (static) extraction positions the batched
//! integer path is **bit-exact** per sample with the single-sample path —
//! the equivalence tests in `tests/batch_equivalence.rs` pin this down at
//! every ratio level. The one intentional divergence: with
//! [`QuantExecOptions::dynamic_extract`], extraction positions derive
//! from the *live* values, and a batched call computes them over the
//! whole batch's activations rather than per sample (the batch shares
//! one plan, one scale, and one extraction rule per group — §7's premise
//! that a batch executes one configuration).
//!
//! Padded variable-length batches keep both properties: activation
//! scales are **calibrated** per tensor, so pad rows cannot pollute
//! them, and every quantized kernel is per-output-row, so pad rows never
//! touch a valid row's accumulator. The one live statistic — dynamic
//! extraction positions — honours the executor-installed
//! [`crate::exec::Compute::set_seq_mask`] and derives from real rows
//! only.
//!
//! Batched quantized layers are also internally parallel: activation
//! quantization chunks, the 8-bit linear bands, the band GEMMs, and —
//! for grouped/depthwise convolutions — whole conv groups fan across
//! the ambient [`flexiq_parallel`] pool. Work is partitioned strictly
//! along independent output ranges, so the parallel integer path stays
//! bit-exact with serial execution at every thread count.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use flexiq_quant::dynamic::dynamic_lowering;
use flexiq_quant::lowering::BitLowering;
use flexiq_quant::quantize::{PerChannelQ, RANGE_EPS};
use flexiq_quant::{GroupSpec, QParams, QuantBits};
use flexiq_telemetry as tel;
use flexiq_tensor::im2col::{im2col_i8_batch_fill, im2col_i8_fill};
use flexiq_tensor::{gemm, simd, I8Tensor, SeqMask, Tensor};

use crate::calibrate::CalibrationRecord;
use crate::error::NnError;
use crate::exec::Compute;
use crate::graph::{Graph, LayerId, LayerView};
use crate::ops::{Conv2d, Linear};
use crate::workspace::{self, Buf, Workspace};
use crate::Result;

/// Static quantization state of one layer.
#[derive(Debug, Clone)]
pub struct LayerQuant {
    /// Feature (input) channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// 8-bit master weights in the layer's original layout.
    pub w_q: I8Tensor,
    /// Per-output-channel weight scales.
    pub w_scales: Vec<f32>,
    /// Per-tensor activation scale (8-bit).
    pub act_scale: f32,
    /// Calibrated per-feature-group activation maxima, in quantized units.
    pub act_group_max_q: Vec<u32>,
    /// Per-feature-group, per-output-channel weight maxima, in quantized
    /// units (`[group][c_out]`).
    pub w_group_max_q: Vec<Vec<u32>>,
}

impl LayerQuant {
    /// Number of feature groups.
    pub fn num_groups(&self) -> usize {
        self.act_group_max_q.len()
    }

    /// Static activation extraction rule for group `g`.
    pub fn act_lowering(&self, g: usize, low_bits: QuantBits) -> BitLowering {
        BitLowering::for_max_abs(self.act_group_max_q[g], low_bits)
    }

    /// Static weight extraction rule for group `g`, output channel `o`.
    pub fn w_lowering(&self, g: usize, o: usize, low_bits: QuantBits) -> BitLowering {
        BitLowering::for_max_abs(self.w_group_max_q[g][o], low_bits)
    }
}

/// A quantized model: per-layer 8-bit state plus the group spec.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    /// Per-layer state, indexed by [`LayerId`].
    pub layers: Vec<LayerQuant>,
    /// The feature-group granularity used throughout.
    pub groups: GroupSpec,
}

impl QuantizedModel {
    /// Quantizes a calibrated graph to 8-bit master state.
    pub fn prepare(graph: &Graph, calib: &CalibrationRecord, groups: GroupSpec) -> Result<Self> {
        if calib.num_layers() != graph.num_layers() {
            return Err(NnError::Invalid(format!(
                "calibration covers {} layers, graph has {}",
                calib.num_layers(),
                graph.num_layers()
            )));
        }
        let mut layers = Vec::with_capacity(graph.num_layers());
        for l in 0..graph.num_layers() {
            let view = graph.layer(l)?;
            let weight = view.weight();
            let pc = PerChannelQ::calibrate_axis0(weight, QuantBits::B8)?;
            let w_q = pc.quantize_axis0(weight)?;
            let (c_in, c_out) = (view.c_in(), view.c_out());

            let lc = &calib.layers[l];
            let act_scale = lc.act_abs_max.max(RANGE_EPS) / QuantBits::B8.qmax() as f32;
            let act_params = QParams::new(act_scale, QuantBits::B8)?;
            let n_groups = groups.num_groups(c_in);
            let mut act_group_max_q = vec![0u32; n_groups];
            if lc.act_channel_abs.len() == c_in {
                for g in 0..n_groups {
                    let r = groups.channel_range(g, c_in);
                    let m = lc.act_channel_abs[r].iter().fold(0.0f32, |a, &b| a.max(b));
                    act_group_max_q[g] = act_params.quantize(m).unsigned_abs();
                }
            } else {
                // No per-channel data (layer never calibrated): assume the
                // full 8-bit range so lowering degrades to naive.
                act_group_max_q.fill(QuantBits::B8.qmax() as u32);
            }

            let w_group_max_q = weight_group_maxima(&view, &w_q, groups);
            layers.push(LayerQuant {
                c_in,
                c_out,
                w_q,
                w_scales: pc.scales().to_vec(),
                act_scale,
                act_group_max_q,
                w_group_max_q,
            });
        }
        Ok(QuantizedModel { layers, groups })
    }

    /// Number of quantizable layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Feature groups of each layer.
    pub fn groups_per_layer(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.num_groups()).collect()
    }

    /// Total weight parameters.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(|l| l.w_q.numel()).sum()
    }
}

/// Per-feature-group, per-output-channel maxima of the quantized weights.
fn weight_group_maxima(view: &LayerView<'_>, w_q: &I8Tensor, groups: GroupSpec) -> Vec<Vec<u32>> {
    match view {
        LayerView::Linear(lin) => {
            let (c_out, c_in) = (lin.c_out(), lin.c_in());
            let n_groups = groups.num_groups(c_in);
            let mut out = vec![vec![0u32; c_out]; n_groups];
            for o in 0..c_out {
                for c in 0..c_in {
                    let g = groups.group_of(c);
                    let v = w_q.data()[o * c_in + c].unsigned_abs() as u32;
                    if v > out[g][o] {
                        out[g][o] = v;
                    }
                }
            }
            out
        }
        LayerView::Conv(conv) => {
            let (c_out, c_in) = (conv.c_out(), conv.c_in());
            let c_in_g = conv.weight.dims()[1];
            let khkw = conv.kh() * conv.kw();
            let c_out_g = c_out / conv.groups;
            let n_groups = groups.num_groups(c_in);
            let mut out = vec![vec![0u32; c_out]; n_groups];
            for o in 0..c_out {
                let cg = o / c_out_g;
                for cl in 0..c_in_g {
                    let c = cg * c_in_g + cl; // global feature channel
                    let g = groups.group_of(c);
                    for k in 0..khkw {
                        let v = w_q.data()[(o * c_in_g + cl) * khkw + k].unsigned_abs() as u32;
                        if v > out[g][o] {
                            out[g][o] = v;
                        }
                    }
                }
            }
            out
        }
    }
}

/// Which feature groups run at low bitwidth, per layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedPlan {
    /// `low_groups[layer][group]` — `true` selects 4-bit computation.
    pub low_groups: Vec<Vec<bool>>,
}

impl MixedPlan {
    /// Plan with every group at 8 bits (equivalent to uniform INT8).
    pub fn all_high(model: &QuantizedModel) -> Self {
        MixedPlan {
            low_groups: model
                .layers
                .iter()
                .map(|l| vec![false; l.num_groups()])
                .collect(),
        }
    }

    /// Plan with every group at 4 bits (FlexiQ 100%).
    pub fn all_low(model: &QuantizedModel) -> Self {
        MixedPlan {
            low_groups: model
                .layers
                .iter()
                .map(|l| vec![true; l.num_groups()])
                .collect(),
        }
    }

    /// Validates plan dimensions against a model.
    pub fn validate(&self, model: &QuantizedModel) -> Result<()> {
        if self.low_groups.len() != model.num_layers() {
            return Err(NnError::Invalid(format!(
                "plan covers {} layers, model has {}",
                self.low_groups.len(),
                model.num_layers()
            )));
        }
        for (l, groups) in self.low_groups.iter().enumerate() {
            if groups.len() != model.layers[l].num_groups() {
                return Err(NnError::Invalid(format!(
                    "plan layer {l} has {} groups, model has {}",
                    groups.len(),
                    model.layers[l].num_groups()
                )));
            }
        }
        Ok(())
    }

    /// Fraction of weight parameters computed at low bitwidth.
    pub fn low_param_fraction(&self, model: &QuantizedModel) -> f64 {
        let mut low = 0usize;
        let mut total = 0usize;
        for (l, lq) in model.layers.iter().enumerate() {
            let per_channel = lq.w_q.numel() / lq.c_in.max(1);
            for g in 0..lq.num_groups() {
                let channels = model.groups.channel_range(g, lq.c_in).len();
                let params = channels * per_channel;
                total += params;
                if self.low_groups[l][g] {
                    low += params;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            low as f64 / total as f64
        }
    }

    /// Average bitwidth implied by the plan (weights and activations share
    /// the ratio, so one number covers both — Table 2's header).
    pub fn avg_bits(&self, model: &QuantizedModel) -> f64 {
        8.0 - 4.0 * self.low_param_fraction(model)
    }

    /// Returns `true` if `other` selects a superset of this plan's low
    /// groups (the nested-ratio invariant of §5).
    pub fn subset_of(&self, other: &MixedPlan) -> bool {
        self.low_groups.len() == other.low_groups.len()
            && self
                .low_groups
                .iter()
                .zip(other.low_groups.iter())
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b.iter()).all(|(&x, &y)| !x || y))
    }
}

/// Which arithmetic the quantized executor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Exact integer path (band GEMMs + shifted accumulation).
    Int,
    /// Float simulation of the same arithmetic (fast).
    Fake,
}

/// Options for quantized execution.
#[derive(Debug, Clone, Copy)]
pub struct QuantExecOptions {
    /// Arithmetic path.
    pub mode: ExecMode,
    /// Recompute activation extraction positions per call via bitwise OR
    /// (§4.1 dynamic mode) instead of using calibrated positions.
    pub dynamic_extract: bool,
    /// Low bitwidth (4 in the paper; 2 for the NPU extension).
    pub low_bits: QuantBits,
    /// Force naive top-bit lowering (ignore calibrated extraction
    /// positions) — the `Random` baseline of the Table 7 ablation.
    pub naive_lowering: bool,
}

impl Default for QuantExecOptions {
    fn default() -> Self {
        QuantExecOptions {
            mode: ExecMode::Fake,
            dynamic_extract: false,
            low_bits: QuantBits::B4,
            naive_lowering: false,
        }
    }
}

impl QuantExecOptions {
    /// Whether batched execution under these options is bit-exact, per
    /// sample, with running each sample alone. False exactly when live
    /// (dynamic) extraction is in effect: its rules derive from the
    /// whole batch's values (see the module docs). The single source of
    /// this predicate — the engine's [`Compute::batch_invariant`] and
    /// every samplewise driver that pre-stacks (e.g. the selection
    /// loop's fitness evaluator) must route through it.
    pub fn batch_invariant(&self) -> bool {
        !self.dynamic_extract || self.naive_lowering
    }
}

/// Static weight extraction rule for `(layer, group, out-channel)`.
/// Depends on the model's calibrated maxima and the exec options only —
/// **not** on the [`MixedPlan`] — which is what makes cached lowered
/// weights level-independent: switching levels re-selects which bands
/// run low, never what a low band's lowering looks like.
fn static_w_rule(
    model: &QuantizedModel,
    opts: &QuantExecOptions,
    l: LayerId,
    g: usize,
    o: usize,
) -> BitLowering {
    if opts.naive_lowering {
        BitLowering::naive(QuantBits::B8, opts.low_bits)
    } else {
        model.layers[l].w_lowering(g, o, opts.low_bits)
    }
}

// ───────────────────────── prepacked-weight cache ─────────────────────────

/// Cached state of one high (8-bit) linear band: the NR-lane rhs panels
/// of the `[C_out, C_in]` master weights over the group's feature range,
/// consumed by [`gemm::gemm_i8_band_wt_prepacked`].
struct HighPack {
    panel: gemm::PackedRhsI8,
}

/// Cached state of one low (4-bit) linear band: per-output-channel
/// extraction rules, the lowered weight block `[bw, C_out]`, and its rhs
/// panels for [`gemm::gemm_i8_prepacked`].
struct LowPack {
    rules: Vec<BitLowering>,
    wg: Vec<i8>,
    panel: gemm::PackedRhsI8,
}

/// Cached state of one conv feature-group band: per-output-row rules
/// plus the lowered weight band `[c_out_g, bw]`. Conv band GEMMs run the
/// weights as the **lhs** operand, so there is no rhs panel to prepack —
/// the cache saves the per-batch lowering rebuild.
struct ConvLowPack {
    rules: Vec<BitLowering>,
    wb: Vec<i8>,
}

/// Everything a cache entry's content depends on besides the immutable
/// model weights. A mismatch (options changed, SIMD toggled) flushes the
/// whole cache rather than keying entries individually — these never
/// change mid-serving.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    low_bits: QuantBits,
    naive_lowering: bool,
    isa: simd::Isa,
}

#[derive(Default)]
struct CacheInner {
    key: Option<CacheKey>,
    /// `high[layer][group]`, sized to the model on first use.
    high: Vec<Vec<Option<Arc<HighPack>>>>,
    /// `low[layer][group]`.
    low: Vec<Vec<Option<Arc<LowPack>>>>,
    /// Conv bands keyed by `(layer, conv group, feature group)` — run
    /// boundaries are deterministic from the key, so it identifies the
    /// band exactly.
    conv_low: HashMap<(LayerId, usize, usize), Arc<ConvLowPack>>,
}

/// Ahead-of-time prepacked-weight cache (the tentpole of PR 8).
///
/// Holds, per `(layer, feature group)`, the quantized + bit-lowered +
/// NR-lane-packed weight state that [`QuantCompute`] would otherwise
/// rebuild on every call: high-band wt panels, low-band lowered blocks
/// with their panels and rules, and conv lowered bands. Entries are
/// **level-independent** (see `static_w_rule`) — a level switch needs
/// no invalidation; [`PackCache::invalidate`] exists for weight
/// mutation. Lookups clone an `Arc` under a read lock (no allocation on
/// the hot path); builds run outside the lock.
///
/// Populated lazily on first use, or eagerly via [`PackCache::prewarm`].
/// Consultation is skipped entirely under `FLEXIQ_NO_PREPACK=1`
/// ([`gemm::prepack_enabled`]), which restores the per-call path as the
/// bit-exactness oracle.
#[derive(Default)]
pub struct PackCache {
    inner: RwLock<CacheInner>,
}

impl PackCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every entry (call after mutating model weights).
    pub fn invalidate(&self) {
        *self.write() = CacheInner::default();
    }

    /// Total bytes held by cache entries (panels + lowered blocks).
    pub fn resident_bytes(&self) -> usize {
        let inner = self.read();
        let hi: usize = inner
            .high
            .iter()
            .flatten()
            .flatten()
            .map(|p| p.panel.bytes())
            .sum();
        let lo: usize = inner
            .low
            .iter()
            .flatten()
            .flatten()
            .map(|p| p.panel.bytes() + p.wg.len() + std::mem::size_of_val(&p.rules[..]))
            .sum();
        let cv: usize = inner
            .conv_low
            .values()
            .map(|p| p.wb.len() + std::mem::size_of_val(&p.rules[..]))
            .sum();
        hi + lo + cv
    }

    fn read(&self) -> RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    fn key_for(opts: &QuantExecOptions) -> CacheKey {
        CacheKey {
            low_bits: opts.low_bits,
            naive_lowering: opts.naive_lowering,
            isa: simd::active(),
        }
    }

    /// Flushes and resizes the slot tables when the key doesn't match.
    fn align(inner: &mut CacheInner, key: CacheKey, model: &QuantizedModel) {
        if inner.key != Some(key) {
            *inner = CacheInner {
                key: Some(key),
                high: model
                    .layers
                    .iter()
                    .map(|l| vec![None; l.num_groups()])
                    .collect(),
                low: model
                    .layers
                    .iter()
                    .map(|l| vec![None; l.num_groups()])
                    .collect(),
                conv_low: HashMap::new(),
            };
        }
    }

    /// High-band panels for linear layer `l`, feature group `g`.
    fn high(
        &self,
        model: &QuantizedModel,
        opts: &QuantExecOptions,
        l: LayerId,
        g: usize,
    ) -> Arc<HighPack> {
        let key = Self::key_for(opts);
        {
            let inner = self.read();
            if inner.key == Some(key) {
                if let Some(Some(p)) = inner.high.get(l).and_then(|v| v.get(g)) {
                    tel::count(tel::Counter::PackCacheHits, 1);
                    return p.clone();
                }
            }
        }
        // Build outside the lock so concurrent hits keep flowing.
        let lq = &model.layers[l];
        let range = model.groups.channel_range(g, lq.c_in);
        let panel =
            gemm::prepack_i8_wt_band(lq.c_out, lq.c_in, range.start, range.end, lq.w_q.data());
        let entry = Arc::new(HighPack { panel });
        tel::count(tel::Counter::PackCacheMisses, 1);
        let mut inner = self.write();
        Self::align(&mut inner, key, model);
        let slot = &mut inner.high[l][g];
        match slot {
            // Lost a build race: the resident entry is identical content;
            // keep it so bytes aren't double-booked.
            Some(p) => p.clone(),
            None => {
                tel::count(tel::Counter::PackCacheBytes, entry.panel.bytes() as u64);
                *slot = Some(entry.clone());
                entry
            }
        }
    }

    /// Low-band lowered block + panels for linear layer `l`, group `g`.
    fn low(
        &self,
        model: &QuantizedModel,
        opts: &QuantExecOptions,
        l: LayerId,
        g: usize,
    ) -> Arc<LowPack> {
        let key = Self::key_for(opts);
        {
            let inner = self.read();
            if inner.key == Some(key) {
                if let Some(Some(p)) = inner.low.get(l).and_then(|v| v.get(g)) {
                    tel::count(tel::Counter::PackCacheHits, 1);
                    return p.clone();
                }
            }
        }
        let lq = &model.layers[l];
        let wq = lq.w_q.data();
        let (c_in, c_out) = (lq.c_in, lq.c_out);
        let range = model.groups.channel_range(g, c_in);
        let bw = range.len();
        let rules: Vec<BitLowering> = (0..c_out)
            .map(|o| static_w_rule(model, opts, l, g, o))
            .collect();
        let mut wg = vec![0i8; bw * c_out];
        for (bi, c) in range.enumerate() {
            for o in 0..c_out {
                wg[bi * c_out + o] = rules[o].lower(wq[o * c_in + c]);
            }
        }
        let panel = gemm::prepack_i8(c_out, bw, &wg);
        let bytes = (panel.bytes() + wg.len() + std::mem::size_of_val(&rules[..])) as u64;
        let entry = Arc::new(LowPack { rules, wg, panel });
        tel::count(tel::Counter::PackCacheMisses, 1);
        let mut inner = self.write();
        Self::align(&mut inner, key, model);
        let slot = &mut inner.low[l][g];
        match slot {
            Some(p) => p.clone(),
            None => {
                tel::count(tel::Counter::PackCacheBytes, bytes);
                *slot = Some(entry.clone());
                entry
            }
        }
    }

    /// Lowered conv band for layer `l`, conv group `cg`, feature group
    /// `g`. Geometry args mirror [`QuantCompute::conv_group_bands`]'s
    /// locals: `k = c_in_g·kh·kw`, `w_base` the group's offset into the
    /// master weights, `k0..k1` the feature-group run within the group.
    #[allow(clippy::too_many_arguments)]
    fn conv_low(
        &self,
        model: &QuantizedModel,
        opts: &QuantExecOptions,
        l: LayerId,
        cg: usize,
        g: usize,
        c_out_g: usize,
        k: usize,
        w_base: usize,
        k0: usize,
        k1: usize,
    ) -> Arc<ConvLowPack> {
        let key = Self::key_for(opts);
        {
            let inner = self.read();
            if inner.key == Some(key) {
                if let Some(p) = inner.conv_low.get(&(l, cg, g)) {
                    tel::count(tel::Counter::PackCacheHits, 1);
                    return p.clone();
                }
            }
        }
        let wq = model.layers[l].w_q.data();
        let bw = k1 - k0;
        let rules: Vec<BitLowering> = (0..c_out_g)
            .map(|ol| static_w_rule(model, opts, l, g, cg * c_out_g + ol))
            .collect();
        let mut wb = vec![0i8; c_out_g * bw];
        for ol in 0..c_out_g {
            for r in 0..bw {
                wb[ol * bw + r] = rules[ol].lower(wq[w_base + ol * k + k0 + r]);
            }
        }
        let bytes = (wb.len() + std::mem::size_of_val(&rules[..])) as u64;
        let entry = Arc::new(ConvLowPack { rules, wb });
        tel::count(tel::Counter::PackCacheMisses, 1);
        let mut inner = self.write();
        Self::align(&mut inner, key, model);
        match inner.conv_low.get(&(l, cg, g)) {
            Some(p) => p.clone(),
            None => {
                tel::count(tel::Counter::PackCacheBytes, bytes);
                inner.conv_low.insert((l, cg, g), entry.clone());
                entry
            }
        }
    }

    /// Eagerly builds every entry any plan could touch. Entries are
    /// level-independent, so warming once covers all levels — this is
    /// what the serve crate's `ServeConfig::prewarm` runs at startup so
    /// the adaptive controller's first level switch pays no packing
    /// latency.
    ///
    /// No-op when prepacking is disabled (`FLEXIQ_NO_PREPACK=1`).
    pub fn prewarm(
        &self,
        graph: &Graph,
        model: &QuantizedModel,
        opts: QuantExecOptions,
    ) -> Result<()> {
        if !gemm::prepack_enabled() {
            return Ok(());
        }
        for l in 0..model.num_layers() {
            let lq = &model.layers[l];
            match graph.layer(l)? {
                LayerView::Linear(_) => {
                    for g in 0..lq.num_groups() {
                        if model.groups.channel_range(g, lq.c_in).is_empty() {
                            continue;
                        }
                        self.high(model, &opts, l, g);
                        self.low(model, &opts, l, g);
                    }
                }
                LayerView::Conv(conv) => {
                    let khkw = conv.kh() * conv.kw();
                    let c_in_g = conv.weight.dims()[1];
                    let c_out_g = conv.c_out() / conv.groups;
                    let k = c_in_g * khkw;
                    for cg in 0..conv.groups {
                        let w_base = cg * c_out_g * k;
                        let mut cl = 0usize;
                        while cl < c_in_g {
                            let g = model.groups.group_of(cg * c_in_g + cl);
                            let g_end = model.groups.channel_range(g, lq.c_in).end;
                            let run_end = (g_end - cg * c_in_g).min(c_in_g);
                            let (k0, k1) = (cl * khkw, run_end * khkw);
                            self.conv_low(model, &opts, l, cg, g, c_out_g, k, w_base, k0, k1);
                            cl = run_end;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The per-group scratch one conv band pass needs, borrowed field-wise
/// from a [`Workspace`] so the caller can keep the quantized activation
/// and im2col buffers borrowed alongside.
struct GroupScratch<'a> {
    low_w: &'a mut Buf<i8>,
    rules: &'a mut Buf<BitLowering>,
    gemm: &'a mut Buf<i32>,
}

/// The quantized compute hook.
///
/// Create one per (model, plan) pair; reconstructed weights are cached
/// across calls, so evaluating many samples under one plan is cheap.
///
/// Construction checks the calling thread's parked [`Workspace`] out and
/// drop parks it again, so consecutive hooks on one thread (a serve
/// worker's dispatches, a bench loop's `infer` calls) reuse the same
/// scratch buffers: the steady-state linear/conv hot path allocates
/// nothing beyond its output tensors.
pub struct QuantCompute<'m> {
    model: &'m QuantizedModel,
    plan: MixedPlan,
    opts: QuantExecOptions,
    /// Cached effective f32 weights per layer (Fake mode).
    fake_weights: Vec<Option<Tensor>>,
    /// Sequence mask of the current padded batch, installed by the
    /// masked executor. Per-tensor activation scales are calibrated, so
    /// pad rows never pollute them; the mask matters only for **live**
    /// statistics — dynamic extraction positions — which must derive
    /// from real rows alone.
    seq_mask: Option<SeqMask>,
    /// Per-thread scratch, checked out for this hook's lifetime. Taken
    /// out of `self` (`std::mem::take`) for the duration of each layer
    /// call so its fields can be borrowed alongside `&self` helpers.
    ws: Workspace,
    /// Shared prepacked-weight cache ([`PackCache`]); `None` runs every
    /// band through per-call lowering + packing (the oracle path).
    cache: Option<Arc<PackCache>>,
    /// K/V-cache precision spec attention cores run under. Stays the
    /// f32 default (uncached [`crate::ops::Attention::core`]) unless the
    /// runtime installs a quantized spec via
    /// [`crate::exec::Compute::set_kv_spec`].
    kv: crate::kv::KvSpec,
}

impl Drop for QuantCompute<'_> {
    fn drop(&mut self) {
        workspace::put(std::mem::take(&mut self.ws));
    }
}

impl<'m> QuantCompute<'m> {
    /// Creates a quantized compute hook for the given plan.
    pub fn new(model: &'m QuantizedModel, plan: MixedPlan, opts: QuantExecOptions) -> Result<Self> {
        Self::with_cache(model, plan, opts, None)
    }

    /// Like [`QuantCompute::new`], with a shared prepacked-weight cache.
    /// Int-mode linear and conv bands consult it instead of re-lowering
    /// and re-packing weights per call; outputs are bit-identical either
    /// way (the cache stores exactly what the per-call path would build).
    pub fn with_cache(
        model: &'m QuantizedModel,
        plan: MixedPlan,
        opts: QuantExecOptions,
        cache: Option<Arc<PackCache>>,
    ) -> Result<Self> {
        plan.validate(model)?;
        let n = model.num_layers();
        Ok(QuantCompute {
            model,
            plan,
            opts,
            fake_weights: vec![None; n],
            seq_mask: None,
            ws: workspace::take(),
            cache,
            kv: crate::kv::KvSpec::f32(),
        })
    }

    /// The cache to consult this call, honouring the escape hatch
    /// (`FLEXIQ_NO_PREPACK=1` disables consumption entirely so the
    /// equivalence suites can exercise the fully uncached path).
    fn pack_cache(&self) -> Option<&PackCache> {
        match &self.cache {
            Some(c) if gemm::prepack_enabled() => Some(c),
            _ => None,
        }
    }

    /// This hook's workspace (growth counters are test hooks).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Per-row validity of an `[N, T, C]` token stack under the installed
    /// sequence mask (`None` when no non-trivial mask applies to this
    /// shape — then every row is live).
    fn row_mask(&self, n: usize, t: usize) -> Option<Vec<bool>> {
        let m = self.seq_mask.as_ref()?;
        if !m.matches(n, t) || m.is_trivial() {
            return None;
        }
        let mut valid = Vec::with_capacity(n * t);
        for s in 0..n {
            for ti in 0..t {
                valid.push(ti < m.len_of(s));
            }
        }
        Some(valid)
    }

    /// The active plan.
    pub fn plan(&self) -> &MixedPlan {
        &self.plan
    }

    /// Effective (reconstructed) f32 weights of a layer under the plan.
    fn fake_weight(&mut self, l: LayerId) -> Result<&Tensor> {
        if self.fake_weights[l].is_none() {
            let lq = &self.model.layers[l];
            let per_channel = lq.w_q.numel() / lq.c_in.max(1);
            let _ = per_channel;
            let dims = lq.w_q.dims().to_vec();
            let mut data = vec![0.0f32; lq.w_q.numel()];
            match dims.len() {
                2 => {
                    // Linear [C_out, C_in].
                    let c_in = dims[1];
                    for o in 0..dims[0] {
                        for c in 0..c_in {
                            let g = self.model.groups.group_of(c);
                            let q = lq.w_q.data()[o * c_in + c];
                            let v = if self.plan.low_groups[l][g] {
                                self.w_rule(l, g, o).round_trip(q)
                            } else {
                                q as i32
                            };
                            data[o * c_in + c] = v as f32 * lq.w_scales[o];
                        }
                    }
                }
                4 => {
                    // Conv [C_out, C_in/groups, KH, KW].
                    let (c_out, c_in_g) = (dims[0], dims[1]);
                    let khkw = dims[2] * dims[3];
                    let conv_groups = lq.c_in / c_in_g;
                    let c_out_g = c_out / conv_groups.max(1);
                    for o in 0..c_out {
                        let cg = o / c_out_g.max(1);
                        for cl in 0..c_in_g {
                            let c = cg * c_in_g + cl;
                            let g = self.model.groups.group_of(c);
                            for k in 0..khkw {
                                let idx = (o * c_in_g + cl) * khkw + k;
                                let q = lq.w_q.data()[idx];
                                let v = if self.plan.low_groups[l][g] {
                                    self.w_rule(l, g, o).round_trip(q)
                                } else {
                                    q as i32
                                };
                                data[idx] = v as f32 * lq.w_scales[o];
                            }
                        }
                    }
                }
                _ => return Err(NnError::BadLayer(l)),
            }
            self.fake_weights[l] = Some(Tensor::from_vec(dims, data)?);
        }
        Ok(self.fake_weights[l].as_ref().expect("just inserted"))
    }

    /// Quantizes an activation tensor to `i8` with the layer's per-tensor
    /// scale, into a workspace buffer (no steady-state allocation).
    /// Elements are independent, so large activations quantize in
    /// parallel chunks (bit-exact: each element's rounding is untouched).
    fn quantize_act_into(&self, l: LayerId, x: &Tensor, buf: &mut Buf<i8>) {
        let _span = tel::span("act_quant", tel::Cat::Phase);
        let p = QParams::new(self.model.layers[l].act_scale, QuantBits::B8)
            .expect("scale validated at prepare");
        let data = x.data();
        let out = buf.prep(data.len());
        if !flexiq_parallel::in_task() && data.len() >= 16 * 1024 {
            let pool = flexiq_parallel::current();
            if pool.threads() >= 2 {
                let mut ranges = flexiq_parallel::take_ranges();
                flexiq_parallel::chunk_ranges_into(data.len(), pool.threads() * 4, &mut ranges);
                pool.run_disjoint_mut(out, &ranges, |bi, chunk| {
                    for (dst, &v) in chunk.iter_mut().zip(&data[ranges[bi].clone()]) {
                        *dst = p.quantize(v) as i8;
                    }
                });
                flexiq_parallel::put_ranges(ranges);
                return;
            }
        }
        for (dst, &v) in out.iter_mut().zip(data.iter()) {
            *dst = p.quantize(v) as i8;
        }
    }

    /// Activation extraction rule for one group: static position from
    /// calibration, or dynamic from the live values.
    fn act_rule(&self, l: LayerId, g: usize, live: &[i8]) -> BitLowering {
        if self.opts.naive_lowering {
            BitLowering::naive(QuantBits::B8, self.opts.low_bits)
        } else if self.opts.dynamic_extract {
            dynamic_lowering(live, self.opts.low_bits)
        } else {
            self.model.layers[l].act_lowering(g, self.opts.low_bits)
        }
    }

    /// Weight extraction rule for `(group, out-channel)`.
    fn w_rule(&self, l: LayerId, g: usize, o: usize) -> BitLowering {
        if self.opts.naive_lowering {
            BitLowering::naive(QuantBits::B8, self.opts.low_bits)
        } else {
            self.model.layers[l].w_lowering(g, o, self.opts.low_bits)
        }
    }

    /// Fake-mode effective activation: per-channel lower + reconstruct.
    ///
    /// `gather(c)` yields the indices of `xq` belonging to channel `c`.
    /// `live_ok(i)` says whether index `i` may contribute to **live**
    /// extraction statistics (dynamic mode); pad rows of a masked batch
    /// are excluded there, though their elements are still round-tripped
    /// (a per-element operation that cannot affect valid rows).
    fn fake_effective_act(
        &self,
        l: LayerId,
        xq: &[i8],
        c_in: usize,
        gather: impl Fn(usize) -> Vec<usize>,
        live_ok: impl Fn(usize) -> bool,
    ) -> Vec<f32> {
        let lq = &self.model.layers[l];
        let mut out: Vec<f32> = xq.iter().map(|&q| q as f32 * lq.act_scale).collect();
        for g in 0..lq.num_groups() {
            if !self.plan.low_groups[l][g] {
                continue;
            }
            let range = self.model.groups.channel_range(g, c_in);
            let mut idxs: Vec<usize> = Vec::new();
            for c in range {
                idxs.extend(gather(c));
            }
            let live: Vec<i8> = if self.needs_live() {
                idxs.iter()
                    .filter(|&&i| live_ok(i))
                    .map(|&i| xq[i])
                    .collect()
            } else {
                Vec::new()
            };
            let rule = self.act_rule(l, g, &live);
            for &i in &idxs {
                out[i] = rule.round_trip(xq[i]) as f32 * lq.act_scale;
            }
        }
        out
    }

    fn linear_fake(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (t, c_in) = lin.check_input(x)?;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let x_eff = self.fake_effective_act(
            l,
            &ws.act_q,
            c_in,
            |c| (0..t).map(|ti| ti * c_in + c).collect(),
            |_| true,
        );
        self.ws = ws;
        let x_eff = Tensor::from_vec(x.dims().to_vec(), x_eff)?;
        let w_eff = self.fake_weight(l)?.clone();
        let eff = Linear::new(w_eff, lin.bias.clone())?;
        eff.forward(&x_eff)
    }

    fn conv_fake(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (c_in, h, w) = conv.check_input(x)?;
        let hw = h * w;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let x_eff = self.fake_effective_act(
            l,
            &ws.act_q,
            c_in,
            |c| (c * hw..(c + 1) * hw).collect(),
            |_| true,
        );
        self.ws = ws;
        let x_eff = Tensor::from_vec(x.dims().to_vec(), x_eff)?;
        let w_eff = self.fake_weight(l)?.clone();
        let eff = Conv2d::new(w_eff, conv.bias.clone(), conv.stride, conv.pad, conv.groups)?;
        eff.forward(&x_eff)
    }

    fn linear_int(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (t, c_in) = lin.check_input(x)?;
        let c_out = lin.c_out();
        // The workspace is taken out of `self` for the duration of the
        // layer so its fields can be borrowed alongside `&self` helpers.
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let lq = &self.model.layers[l];
        let wq = lq.w_q.data();
        ws.acc.prep(t * c_out);
        for g in 0..lq.num_groups() {
            let range = self.model.groups.channel_range(g, c_in);
            let bw = range.len();
            if bw == 0 {
                continue;
            }
            if !self.plan.low_groups[l][g] {
                // 8-bit band: acc[t,o] += sum_{c in band} xq[t,c] wq[o,c],
                // run as a blocked band GEMM straight off the [C_out,
                // C_in] master weights (no transposed copy). With a warm
                // cache the band's rhs panels come prepacked.
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                match self.pack_cache() {
                    Some(cache) => {
                        let hp = cache.high(self.model, &self.opts, l, g);
                        gemm::gemm_i8_band_wt_prepacked(
                            t,
                            c_out,
                            c_in,
                            range.start,
                            range.end,
                            &ws.act_q,
                            wq,
                            &hp.panel,
                            &mut ws.acc,
                        );
                    }
                    None => gemm::gemm_i8_band_wt(
                        t,
                        c_out,
                        c_in,
                        range.start,
                        range.end,
                        &ws.act_q,
                        wq,
                        &mut ws.acc,
                    ),
                }
                continue;
            }
            // 4-bit band with bit extraction and shifted accumulation.
            let lower_span = tel::span("bit_lower", tel::Cat::Phase);
            let a_rule = {
                let act_q: &[i8] = &ws.act_q;
                let live = if self.needs_live() {
                    ws.live.collect_from(
                        (0..t).flat_map(|ti| range.clone().map(move |c| act_q[ti * c_in + c])),
                    )
                } else {
                    ws.live.prep(0)
                };
                self.act_rule(l, g, live)
            };
            {
                let (xg, act_q) = (ws.low_act.prep(t * bw), &ws.act_q);
                for ti in 0..t {
                    for (bi, c) in range.clone().enumerate() {
                        xg[ti * bw + bi] = a_rule.lower(act_q[ti * c_in + c]);
                    }
                }
            }
            // Per-output-channel lowered weight block [bw, C_out] — read
            // straight from the cache when warm, else rebuilt in scratch.
            let lp = self
                .pack_cache()
                .map(|c| c.low(self.model, &self.opts, l, g));
            if lp.is_none() {
                ws.rules.fill_with(c_out, |o| self.w_rule(l, g, o));
                let (wg, rules) = (ws.low_w.prep(bw * c_out), &ws.rules);
                for (bi, c) in range.clone().enumerate() {
                    for o in 0..c_out {
                        wg[bi * c_out + o] = rules[o].lower(wq[o * c_in + c]);
                    }
                }
            }
            drop(lower_span);
            let _band = tel::span("band_gemm", tel::Cat::Phase);
            ws.group_scratch.prep(t * c_out);
            let rules: &[BitLowering] = match &lp {
                Some(lp) => {
                    gemm::gemm_i8_prepacked(
                        t,
                        c_out,
                        bw,
                        &ws.low_act,
                        &lp.wg,
                        &lp.panel,
                        &mut ws.group_scratch,
                    );
                    &lp.rules
                }
                None => {
                    gemm::gemm_i8(t, c_out, bw, &ws.low_act, &ws.low_w, &mut ws.group_scratch);
                    &ws.rules
                }
            };
            for ti in 0..t {
                for o in 0..c_out {
                    let shift = a_rule.shift() + rules[o].shift();
                    ws.acc[ti * c_out + o] += ws.group_scratch[ti * c_out + o] << shift;
                }
            }
        }
        let requant_span = tel::span("requant", tel::Cat::Phase);
        let mut out = vec![0.0f32; t * c_out];
        for ti in 0..t {
            for o in 0..c_out {
                let mut v = ws.acc[ti * c_out + o] as f32 * lq.act_scale * lq.w_scales[o];
                if let Some(b) = &lin.bias {
                    v += b[o];
                }
                out[ti * c_out + o] = v;
            }
        }
        drop(requant_span);
        self.ws = ws;
        if x.dims().len() == 1 {
            Ok(Tensor::from_vec([c_out], out)?)
        } else {
            Ok(Tensor::from_vec([t, c_out], out)?)
        }
    }

    fn conv_int(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (c_in, h, w) = conv.check_input(x)?;
        let geom = conv.group_geometry(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let cols = geom.cols();
        let k = geom.rows();
        let c_in_g = conv.weight.dims()[1];
        let c_out = conv.c_out();
        let c_out_g = c_out / conv.groups;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        self.lower_conv_act(l, 1, c_in, h * w, &mut ws);
        let lq = &self.model.layers[l];
        let mut out = vec![0.0f32; c_out * cols];
        for cg in 0..conv.groups {
            // Lower this conv group's quantized input slice (borrowed in
            // place — no per-group copy) into the workspace.
            let im2col_span = tel::span("im2col", tel::Cat::Phase);
            im2col_i8_fill(
                &ws.act_q[cg * c_in_g * h * w..(cg + 1) * c_in_g * h * w],
                &geom,
                ws.cols_q.prep(k * cols),
            );
            drop(im2col_span);
            let acc = ws.acc.prep(c_out_g * cols);
            let scratch = GroupScratch {
                low_w: &mut ws.low_w,
                rules: &mut ws.rules,
                gemm: &mut ws.group_scratch,
            };
            self.conv_group_bands(
                l,
                conv,
                cg,
                1,
                cols,
                &ws.cols_q,
                &ws.act_rules,
                scratch,
                acc,
            );
            let _requant = tel::span("requant", tel::Cat::Phase);
            for ol in 0..c_out_g {
                let o = cg * c_out_g + ol;
                let s = lq.act_scale * lq.w_scales[o];
                for j in 0..cols {
                    let mut v = ws.acc[ol * cols + j] as f32 * s;
                    if let Some(b) = &conv.bias {
                        v += b[o];
                    }
                    out[o * cols + j] = v;
                }
            }
        }
        self.ws = ws;
        Ok(Tensor::from_vec([c_out, oh, ow], out)?)
    }

    /// Whether an extraction rule needs the live quantized values (only
    /// dynamic mode does; static/naive rules come from calibration).
    fn needs_live(&self) -> bool {
        !self.opts.batch_invariant()
    }

    /// Bit-lowers the low feature groups' channel planes of a quantized
    /// conv activation (`ws.act_q`, `[n, c_in, hw]`) in place, recording
    /// every group's activation rule in `ws.act_rules` (high groups get
    /// an unused placeholder).
    ///
    /// Runs before im2col, so each element is lowered once instead of
    /// once per kernel tap. This is exact: lowering is per element and
    /// per channel, and `lower(0) == 0`, so it commutes with the
    /// zero-padded gather. A dynamic rule derives from its group's
    /// quantized values across the whole batch — as in the Fake engine.
    fn lower_conv_act(&self, l: LayerId, n: usize, c_in: usize, hw: usize, ws: &mut Workspace) {
        let groups = self.model.layers[l].num_groups();
        let placeholder = BitLowering::with_shift(0, self.opts.low_bits);
        ws.act_rules.fill_with(groups, |_| placeholder);
        if !self.plan.low_groups[l].contains(&true) {
            return;
        }
        let _span = tel::span("bit_lower", tel::Cat::Phase);
        let chw = c_in * hw;
        for g in 0..groups {
            if !self.plan.low_groups[l][g] {
                continue;
            }
            let range = self.model.groups.channel_range(g, c_in);
            let planes = |s: usize| s * chw + range.start * hw..s * chw + range.end * hw;
            let act_q: &mut [i8] = &mut ws.act_q;
            let rule = if self.needs_live() {
                let live = ws
                    .live
                    .collect_from((0..n).flat_map(|s| act_q[planes(s)].iter().copied()));
                self.act_rule(l, g, live)
            } else {
                self.act_rule(l, g, &[])
            };
            ws.act_rules[g] = rule;
            for s in 0..n {
                for v in &mut act_q[planes(s)] {
                    *v = rule.lower(*v);
                }
            }
        }
    }

    /// Accumulates one conv group's feature-group bands into `acc`
    /// (`[c_out_g, nb*cols]`, zeroed by the caller), reading the group's
    /// im2col matrix `cols_q` (`[k, nb*cols]`), whose low-group rows were
    /// already bit-lowered by [`Self::lower_conv_act`] under the
    /// per-feature-group rules `a_rules`. This is the single copy of the
    /// band algorithm — the serial single-sample, serial batched, and
    /// pool-fanned batched paths all call it, each supplying its own
    /// [`GroupScratch`] (`nb == 1` for single-sample).
    #[allow(clippy::too_many_arguments)]
    fn conv_group_bands(
        &self,
        l: LayerId,
        conv: &Conv2d,
        cg: usize,
        nb: usize,
        cols: usize,
        cols_q: &[i8],
        a_rules: &[BitLowering],
        s: GroupScratch<'_>,
        acc: &mut [i32],
    ) {
        let lq = &self.model.layers[l];
        let wq = lq.w_q.data();
        let khkw = conv.kh() * conv.kw();
        let c_in_g = conv.weight.dims()[1];
        let c_out_g = conv.c_out() / conv.groups;
        let k = c_in_g * khkw;
        let ncols = nb * cols;
        let w_base = cg * c_out_g * k;
        // Iterate runs of local channels sharing one feature group.
        let mut cl = 0usize;
        while cl < c_in_g {
            let c_global = cg * c_in_g + cl;
            let g = self.model.groups.group_of(c_global);
            let g_end = self.model.groups.channel_range(g, lq.c_in).end;
            let run_end = (g_end - cg * c_in_g).min(c_in_g);
            let (k0, k1) = (cl * khkw, run_end * khkw);
            if !self.plan.low_groups[l][g] {
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                gemm::gemm_i8_band_colbatch(
                    nb,
                    c_out_g,
                    cols,
                    k,
                    k0,
                    k1,
                    &wq[w_base..w_base + c_out_g * k],
                    cols_q,
                    acc,
                );
            } else {
                let bw = k1 - k0;
                let a_rule = a_rules[g];
                let lower_span = tel::span("bit_lower", tel::Cat::Phase);
                // Lowered weight band [c_out_g, bw], per-row rules —
                // served from the cache when warm (conv runs weights as
                // the GEMM lhs, so the cached band is the lowered block
                // itself, not rhs panels); rebuilt in scratch otherwise.
                let clp = self.pack_cache().map(|c| {
                    c.conv_low(self.model, &self.opts, l, cg, g, c_out_g, k, w_base, k0, k1)
                });
                if clp.is_none() {
                    s.rules
                        .fill_with(c_out_g, |ol| self.w_rule(l, g, cg * c_out_g + ol));
                    let wb = s.low_w.prep(c_out_g * bw);
                    for ol in 0..c_out_g {
                        for r in 0..bw {
                            wb[ol * bw + r] = s.rules[ol].lower(wq[w_base + ol * k + k0 + r]);
                        }
                    }
                }
                drop(lower_span);
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                s.gemm.prep(c_out_g * ncols);
                let (wb, rules): (&[i8], &[BitLowering]) = match &clp {
                    Some(p) => (&p.wb, &p.rules),
                    None => (&s.low_w[..], &s.rules[..]),
                };
                // The activation band is rows k0..k1 of `cols_q`, lowered
                // before im2col.
                let xb = &cols_q[k0 * ncols..k1 * ncols];
                gemm::gemm_i8_colbatch(nb, c_out_g, cols, bw, wb, xb, &mut s.gemm[..]);
                for ol in 0..c_out_g {
                    let shift = a_rule.shift() + rules[ol].shift();
                    for j in 0..ncols {
                        acc[ol * ncols + j] += s.gemm[ol * ncols + j] << shift;
                    }
                }
            }
            cl = run_end;
        }
    }

    fn linear_fake_batch(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (n, t, c_in) = lin.check_input_batch(x)?;
        let rows = n * t;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let row_live = self.row_mask(n, t);
        let x_eff = self.fake_effective_act(
            l,
            &ws.act_q,
            c_in,
            |c| (0..rows).map(|r| r * c_in + c).collect(),
            |i| row_live.as_ref().is_none_or(|v| v[i / c_in]),
        );
        self.ws = ws;
        let x_eff = Tensor::from_vec(x.dims().to_vec(), x_eff)?;
        let w_eff = self.fake_weight(l)?.clone();
        let eff = Linear::new(w_eff, lin.bias.clone())?;
        match &row_live {
            // Masked batch: pad rows are skipped outright — the padded
            // pass pays GEMM compute for real tokens only.
            Some(valid) => eff.forward_batch_masked(&x_eff, valid),
            None => eff.forward_batch(&x_eff),
        }
    }

    fn conv_fake_batch(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (n, h, w) = conv.check_input_batch(x)?;
        let c_in = conv.c_in();
        let hw = h * w;
        let chw = c_in * hw;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let x_eff = self.fake_effective_act(
            l,
            &ws.act_q,
            c_in,
            |c| {
                (0..n)
                    .flat_map(|s| s * chw + c * hw..s * chw + (c + 1) * hw)
                    .collect()
            },
            |_| true,
        );
        self.ws = ws;
        let x_eff = Tensor::from_vec(x.dims().to_vec(), x_eff)?;
        let w_eff = self.fake_weight(l)?.clone();
        let eff = Conv2d::new(w_eff, conv.bias.clone(), conv.stride, conv.pad, conv.groups)?;
        eff.forward_batch(&x_eff)
    }

    /// Batched integer linear: one quantization, one weight lowering and
    /// one band GEMM per group for the whole `[N(,T), C]` stack.
    fn linear_int_batch(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (n, t, c_in) = lin.check_input_batch(x)?;
        let rows = n * t;
        let c_out = lin.c_out();
        let row_live = self.row_mask(n, t);
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        let lq = &self.model.layers[l];
        let wq = lq.w_q.data();
        ws.acc.prep(rows * c_out);
        for g in 0..lq.num_groups() {
            let range = self.model.groups.channel_range(g, c_in);
            let bw = range.len();
            if bw == 0 {
                continue;
            }
            if !self.plan.low_groups[l][g] {
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                if row_live.is_none() {
                    // 8-bit band over the whole stack: one blocked band
                    // GEMM straight off the [C_out, C_in] master weights.
                    // Token rows are independent, so the kernel bands
                    // them across the pool internally (integer adds in
                    // unchanged per-element order — bit-exact). With a
                    // warm cache the band's rhs panels come prepacked.
                    match self.pack_cache() {
                        Some(cache) => {
                            let hp = cache.high(self.model, &self.opts, l, g);
                            gemm::gemm_i8_band_wt_prepacked(
                                rows,
                                c_out,
                                c_in,
                                range.start,
                                range.end,
                                &ws.act_q,
                                wq,
                                &hp.panel,
                                &mut ws.acc,
                            );
                        }
                        None => gemm::gemm_i8_band_wt(
                            rows,
                            c_out,
                            c_in,
                            range.start,
                            range.end,
                            &ws.act_q,
                            wq,
                            &mut ws.acc,
                        ),
                    }
                    continue;
                }
                // Masked batch: pad rows are skipped — their accumulator
                // stays zero and they cost no multiplies. The per-row
                // inner product routes through [`gemm::dot_i8`] so it
                // uses the same dispatched ISA kernel as the GEMM paths
                // (exact in i32 regardless of path).
                let (row_live, xq) = (&row_live, &ws.act_q);
                let band_rows = |trange: std::ops::Range<usize>, accband: &mut [i32]| {
                    let t0 = trange.start;
                    for ti in trange {
                        if row_live.as_ref().is_some_and(|v| !v[ti]) {
                            continue;
                        }
                        let xrow = &xq[ti * c_in + range.start..ti * c_in + range.end];
                        for o in 0..c_out {
                            let wrow = &wq[o * c_in + range.start..o * c_in + range.end];
                            accband[(ti - t0) * c_out + o] += gemm::dot_i8(xrow, wrow);
                        }
                    }
                };
                let worth_it = !flexiq_parallel::in_task()
                    && rows >= 2
                    && rows * c_out * bw >= gemm::PAR_MIN_WORK;
                let pool = worth_it.then(flexiq_parallel::current);
                match pool {
                    Some(pool) if pool.threads() >= 2 => {
                        let mut bands = flexiq_parallel::take_ranges();
                        flexiq_parallel::chunk_ranges_into(rows, pool.threads() * 4, &mut bands);
                        let mut elems = flexiq_parallel::take_ranges();
                        elems.extend(bands.iter().map(|r| r.start * c_out..r.end * c_out));
                        pool.run_disjoint_mut(&mut ws.acc, &elems, |bi, chunk| {
                            band_rows(bands[bi].clone(), chunk)
                        });
                        flexiq_parallel::put_ranges(elems);
                        flexiq_parallel::put_ranges(bands);
                    }
                    _ => band_rows(0..rows, &mut ws.acc),
                }
                continue;
            }
            let lower_span = tel::span("bit_lower", tel::Cat::Phase);
            let a_rule = {
                let (xq, row_live): (&[i8], _) = (&ws.act_q, &row_live);
                let live = if self.needs_live() {
                    // Pad rows of a masked batch carry no information
                    // about the real activations; dynamic extraction
                    // positions derive from live rows only.
                    ws.live.collect_from(
                        (0..rows)
                            .filter(|&ti| row_live.as_ref().is_none_or(|v| v[ti]))
                            .flat_map(|ti| range.clone().map(move |c| xq[ti * c_in + c])),
                    )
                } else {
                    ws.live.prep(0)
                };
                self.act_rule(l, g, live)
            };
            // One lowered weight block [bw, C_out] for the whole batch —
            // served prepacked from the cache when warm.
            let lp = self
                .pack_cache()
                .map(|c| c.low(self.model, &self.opts, l, g));
            if lp.is_none() {
                ws.rules.fill_with(c_out, |o| self.w_rule(l, g, o));
                let (wg, rules) = (ws.low_w.prep(bw * c_out), &ws.rules);
                for (bi, c) in range.clone().enumerate() {
                    for o in 0..c_out {
                        wg[bi * c_out + o] = rules[o].lower(wq[o * c_in + c]);
                    }
                }
            }
            // Masked batches compact to their valid rows before the band
            // GEMM: pad rows never enter the kernel (their accumulator
            // stays zero), and each valid row's reduction order is
            // untouched — bit-exact with the unmasked call.
            {
                let row_live = &row_live;
                ws.rows
                    .collect_from((0..rows).filter(|&r| row_live.as_ref().is_none_or(|v| v[r])));
            }
            let nv = ws.rows.len();
            {
                let (xg, vrows, xq) = (ws.low_act.prep(nv * bw), &ws.rows, &ws.act_q);
                for (vi, &ti) in vrows.iter().enumerate() {
                    for (bi, c) in range.clone().enumerate() {
                        xg[vi * bw + bi] = a_rule.lower(xq[ti * c_in + c]);
                    }
                }
            }
            drop(lower_span);
            let _band = tel::span("band_gemm", tel::Cat::Phase);
            ws.group_scratch.prep(nv * c_out);
            let rules: &[BitLowering] = match &lp {
                Some(lp) => {
                    gemm::gemm_i8_prepacked(
                        nv,
                        c_out,
                        bw,
                        &ws.low_act,
                        &lp.wg,
                        &lp.panel,
                        &mut ws.group_scratch,
                    );
                    &lp.rules
                }
                None => {
                    gemm::gemm_i8(nv, c_out, bw, &ws.low_act, &ws.low_w, &mut ws.group_scratch);
                    &ws.rules
                }
            };
            for (vi, &ti) in ws.rows.iter().enumerate() {
                for o in 0..c_out {
                    let shift = a_rule.shift() + rules[o].shift();
                    ws.acc[ti * c_out + o] += ws.group_scratch[vi * c_out + o] << shift;
                }
            }
        }
        let requant_span = tel::span("requant", tel::Cat::Phase);
        let mut out = vec![0.0f32; rows * c_out];
        for ti in 0..rows {
            for o in 0..c_out {
                let mut v = ws.acc[ti * c_out + o] as f32 * lq.act_scale * lq.w_scales[o];
                if let Some(b) = &lin.bias {
                    v += b[o];
                }
                out[ti * c_out + o] = v;
            }
        }
        drop(requant_span);
        self.ws = ws;
        if x.dims().len() == 2 {
            Ok(Tensor::from_vec([n, c_out], out)?)
        } else {
            Ok(Tensor::from_vec([n, t, c_out], out)?)
        }
    }

    /// Batched integer convolution: per conv group, one batched im2col
    /// (`[K, N*cols]`), one lowered weight band per feature group for the
    /// whole batch, and column-batched band GEMMs.
    ///
    /// Conv groups are independent (each reads its own channel slice and
    /// produces its own output channels), so grouped/depthwise layers fan
    /// their groups across the ambient thread pool; single-group layers
    /// parallelize inside the band GEMMs instead. Either way each
    /// accumulator element keeps its serial reduction order — bit-exact
    /// at any thread count.
    fn conv_int_batch(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (n, h, w) = conv.check_input_batch(x)?;
        let geom = conv.group_geometry(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let cols = geom.cols();
        let ncols = n * cols;
        let k = geom.rows();
        let c_in_g = conv.weight.dims()[1];
        let c_out = conv.c_out();
        let c_out_g = c_out / conv.groups;
        let chw = conv.c_in() * h * w;
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, &mut ws.act_q);
        self.lower_conv_act(l, n, conv.c_in(), h * w, &mut ws);
        let lq = &self.model.layers[l];
        let mut out = vec![0.0f32; n * c_out * cols];
        let scatter = |cg: usize, acc: &[i32], out: &mut [f32]| {
            let _requant = tel::span("requant", tel::Cat::Phase);
            for ol in 0..c_out_g {
                let o = cg * c_out_g + ol;
                let s = lq.act_scale * lq.w_scales[o];
                for smp in 0..n {
                    for j in 0..cols {
                        let mut v = acc[ol * ncols + smp * cols + j] as f32 * s;
                        if let Some(b) = &conv.bias {
                            v += b[o];
                        }
                        out[(smp * c_out + o) * cols + j] = v;
                    }
                }
            }
        };
        let pool = (conv.groups >= 2 && !flexiq_parallel::in_task())
            .then(flexiq_parallel::current)
            .filter(|p| p.threads() >= 2);
        match pool {
            Some(pool) => {
                // Parallel conv-group fan-out over disjoint **column
                // bands** of the batched output: band `cg` is that
                // group's `c_out_g * cols` output columns of every
                // sample row. Each executing thread checks its own
                // parked workspace out for the group's im2col matrix,
                // lowering scratch, and i32 accumulator slab (helpers
                // are long-lived pool threads, so their workspaces warm
                // up and stick like the submitter's) and requantizes its
                // band in task — steady state allocates nothing here.
                let (xq, a_rules): (&[i8], &[BitLowering]) = (&ws.act_q, &ws.act_rules);
                let mut bands = flexiq_parallel::take_ranges();
                bands.extend(
                    (0..conv.groups).map(|cg| cg * c_out_g * cols..(cg + 1) * c_out_g * cols),
                );
                pool.run_col_bands_mut(&mut out, n, c_out * cols, &bands, |cg, band| {
                    let mut tls = workspace::take();
                    let im2col_span = tel::span("im2col", tel::Cat::Phase);
                    im2col_i8_batch_fill(
                        &xq[cg * c_in_g * h * w..],
                        n,
                        chw,
                        &geom,
                        tls.cols_q.prep(k * ncols),
                    );
                    drop(im2col_span);
                    let acc = tls.acc.prep(c_out_g * ncols);
                    let scratch = GroupScratch {
                        low_w: &mut tls.low_w,
                        rules: &mut tls.rules,
                        gemm: &mut tls.group_scratch,
                    };
                    self.conv_group_bands(l, conv, cg, n, cols, &tls.cols_q, a_rules, scratch, acc);
                    // Same per-element expression as `scatter`, so the
                    // banded write is bit-exact with the serial path.
                    let _requant = tel::span("requant", tel::Cat::Phase);
                    for smp in 0..n {
                        let row = band.row(smp);
                        for ol in 0..c_out_g {
                            let o = cg * c_out_g + ol;
                            let s = lq.act_scale * lq.w_scales[o];
                            for j in 0..cols {
                                let mut v = tls.acc[ol * ncols + smp * cols + j] as f32 * s;
                                if let Some(b) = &conv.bias {
                                    v += b[o];
                                }
                                row[ol * cols + j] = v;
                            }
                        }
                    }
                    workspace::put(tls);
                });
                flexiq_parallel::put_ranges(bands);
            }
            // Serial: compute and scatter one group at a time through the
            // workspace, so peak scratch stays one group's accumulator
            // (matters for depthwise layers, where groups == C_in) and
            // steady-state passes allocate nothing here.
            None => {
                for cg in 0..conv.groups {
                    let im2col_span = tel::span("im2col", tel::Cat::Phase);
                    im2col_i8_batch_fill(
                        &ws.act_q[cg * c_in_g * h * w..],
                        n,
                        chw,
                        &geom,
                        ws.cols_q.prep(k * ncols),
                    );
                    drop(im2col_span);
                    let acc = ws.acc.prep(c_out_g * ncols);
                    let scratch = GroupScratch {
                        low_w: &mut ws.low_w,
                        rules: &mut ws.rules,
                        gemm: &mut ws.group_scratch,
                    };
                    let (cols_q, a_rules) = (&ws.cols_q, &ws.act_rules);
                    self.conv_group_bands(l, conv, cg, n, cols, cols_q, a_rules, scratch, acc);
                    scatter(cg, &ws.acc, &mut out);
                }
            }
        }
        self.ws = ws;
        Ok(Tensor::from_vec([n, c_out, oh, ow], out)?)
    }
}

impl Compute for QuantCompute<'_> {
    fn conv2d(&mut self, layer: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        match self.opts.mode {
            ExecMode::Fake => self.conv_fake(layer, conv, x),
            ExecMode::Int => self.conv_int(layer, conv, x),
        }
    }

    fn linear(&mut self, layer: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        match self.opts.mode {
            ExecMode::Fake => self.linear_fake(layer, lin, x),
            ExecMode::Int => self.linear_int(layer, lin, x),
        }
    }

    fn conv2d_batch(
        &mut self,
        layer: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        match self.opts.mode {
            ExecMode::Fake => self.conv_fake_batch(layer, conv, x),
            ExecMode::Int => self.conv_int_batch(layer, conv, x),
        }
    }

    fn linear_batch(
        &mut self,
        layer: LayerId,
        lin: &Linear,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        match self.opts.mode {
            ExecMode::Fake => self.linear_fake_batch(layer, lin, x),
            ExecMode::Int => self.linear_int_batch(layer, lin, x),
        }
    }

    fn batch_invariant(&self) -> bool {
        // Dynamic extraction derives positions from the live batch (the
        // documented intentional divergence in the module docs), so
        // samplewise drivers must not silently stack under it.
        !self.needs_live()
    }

    fn set_seq_mask(&mut self, mask: Option<&SeqMask>) {
        self.seq_mask = mask.cloned();
    }

    fn kv_spec(&self) -> crate::kv::KvSpec {
        self.kv
    }

    fn set_kv_spec(&mut self, spec: crate::kv::KvSpec) {
        self.kv = spec;
    }
}

/// Runs a graph under a mixed-precision plan.
pub fn run_quantized(
    graph: &Graph,
    model: &QuantizedModel,
    plan: &MixedPlan,
    opts: QuantExecOptions,
    input: &Tensor,
) -> Result<Tensor> {
    let mut hook = QuantCompute::new(model, plan.clone(), opts)?;
    crate::exec::run(graph, input, &mut hook)
}

/// Runs a stacked `[N, …]` batch under a mixed-precision plan in one
/// pass (the batched counterpart of [`run_quantized`]).
pub fn run_quantized_batch(
    graph: &Graph,
    model: &QuantizedModel,
    plan: &MixedPlan,
    opts: QuantExecOptions,
    input: &Tensor,
) -> Result<Tensor> {
    let mut hook = QuantCompute::new(model, plan.clone(), opts)?;
    crate::exec::run_batch(graph, input, &mut hook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_default;
    use crate::exec::run_f32;
    use crate::graph::Graph;
    use flexiq_tensor::rng::seeded;
    use flexiq_tensor::stats;

    /// A small conv + linear graph with diverse channel ranges.
    fn build_graph(seed: u64) -> (Graph, Vec<Tensor>) {
        let mut rng = seeded(seed);
        let mut g = Graph::new("qtest");
        let x = g.input();
        let ch_scales: Vec<f32> = (0..8)
            .map(|i| if i % 4 == 3 { 1.0 } else { 0.05 })
            .collect();
        let w1 = Tensor::randn_axis_scaled([8, 4, 3, 3], 1, &ch_scales[..4], &mut rng).unwrap();
        let c1 = g
            .conv2d(x, Conv2d::new(w1, Some(vec![0.01; 8]), 1, 1, 1).unwrap())
            .unwrap();
        let r1 = g.relu(c1).unwrap();
        let gp = g
            .add_node(crate::graph::Op::GlobalAvgPool, vec![r1])
            .unwrap();
        let w2 = Tensor::randn_axis_scaled([6, 8], 1, &ch_scales, &mut rng).unwrap();
        let l1 = g.linear(gp, Linear::new(w2, None).unwrap()).unwrap();
        g.set_output(l1).unwrap();
        let samples: Vec<Tensor> = (0..6)
            .map(|_| Tensor::randn([4, 6, 6], 0.0, 1.0, &mut rng))
            .collect();
        (g, samples)
    }

    fn prepared(seed: u64, group: usize) -> (Graph, QuantizedModel, Vec<Tensor>) {
        let (g, samples) = build_graph(seed);
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(group)).unwrap();
        (g, model, samples)
    }

    #[test]
    fn all_high_plan_matches_int8_closely() {
        // The tiny 6-logit output makes the relative-error metric long-
        // tailed across weight draws; this seed sits well inside the bulk
        // of the distribution (rel ≈ 0.003) rather than at its tail.
        let (g, model, samples) = prepared(133, 2);
        let plan = MixedPlan::all_high(&model);
        let y_fp = run_f32(&g, &samples[0]).unwrap();
        let y_q =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[0]).unwrap();
        let rel =
            stats::l2_distance(y_fp.data(), y_q.data()) / stats::l2_norm(y_fp.data()).max(1e-6);
        assert!(rel < 0.05, "INT8 relative error {rel}");
    }

    #[test]
    fn int_and_fake_paths_agree() {
        let (g, model, samples) = prepared(132, 2);
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            let fake = run_quantized(
                &g,
                &model,
                &plan,
                QuantExecOptions {
                    mode: ExecMode::Fake,
                    ..Default::default()
                },
                &samples[1],
            )
            .unwrap();
            let int = run_quantized(
                &g,
                &model,
                &plan,
                QuantExecOptions {
                    mode: ExecMode::Int,
                    ..Default::default()
                },
                &samples[1],
            )
            .unwrap();
            let rel =
                stats::l2_distance(fake.data(), int.data()) / stats::l2_norm(int.data()).max(1e-6);
            assert!(rel < 1e-4, "paths disagree: {rel}");
        }
    }

    #[test]
    fn mixed_plan_interpolates_between_extremes() {
        let (g, model, samples) = prepared(133, 2);
        let high = MixedPlan::all_high(&model);
        let low = MixedPlan::all_low(&model);
        let y8 =
            run_quantized(&g, &model, &high, QuantExecOptions::default(), &samples[2]).unwrap();
        let y4 = run_quantized(&g, &model, &low, QuantExecOptions::default(), &samples[2]).unwrap();
        // A plan with only some groups low must sit between the extremes
        // in error vs the 8-bit output.
        let mut mid = high.clone();
        mid.low_groups[0][0] = true;
        let ym = run_quantized(&g, &model, &mid, QuantExecOptions::default(), &samples[2]).unwrap();
        let e_mid = stats::l2_distance(y8.data(), ym.data());
        let e_low = stats::l2_distance(y8.data(), y4.data());
        assert!(e_mid > 0.0);
        assert!(e_mid <= e_low + 1e-6, "mid {e_mid} vs low {e_low}");
    }

    #[test]
    fn plan_accounting() {
        let (_, model, _) = prepared(134, 2);
        let high = MixedPlan::all_high(&model);
        let low = MixedPlan::all_low(&model);
        assert_eq!(high.low_param_fraction(&model), 0.0);
        assert_eq!(low.low_param_fraction(&model), 1.0);
        assert_eq!(high.avg_bits(&model), 8.0);
        assert_eq!(low.avg_bits(&model), 4.0);
        assert!(high.subset_of(&low));
        assert!(!low.subset_of(&high));
    }

    #[test]
    fn plan_validation_rejects_mismatches() {
        let (_, model, _) = prepared(135, 2);
        let mut plan = MixedPlan::all_high(&model);
        plan.low_groups.pop();
        assert!(plan.validate(&model).is_err());
        let mut plan = MixedPlan::all_high(&model);
        plan.low_groups[0].pop();
        assert!(plan.validate(&model).is_err());
    }

    #[test]
    fn dynamic_extraction_never_increases_error() {
        // Dynamic positions adapt to the live input, so the error vs the
        // f32 output should not exceed the static-position error by more
        // than noise.
        let (g, model, samples) = prepared(136, 2);
        let plan = MixedPlan::all_low(&model);
        let y_fp = run_f32(&g, &samples[3]).unwrap();
        let stat =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[3]).unwrap();
        let dyn_ = run_quantized(
            &g,
            &model,
            &plan,
            QuantExecOptions {
                dynamic_extract: true,
                ..Default::default()
            },
            &samples[3],
        )
        .unwrap();
        let e_stat = stats::l2_distance(y_fp.data(), stat.data());
        let e_dyn = stats::l2_distance(y_fp.data(), dyn_.data());
        assert!(
            e_dyn <= e_stat * 1.25 + 1e-5,
            "dynamic {e_dyn} vs static {e_stat}"
        );
    }

    #[test]
    fn depthwise_conv_quantized_path() {
        let mut rng = seeded(137);
        let mut g = Graph::new("dw");
        let x = g.input();
        let w = Tensor::randn([4, 1, 3, 3], 0.0, 0.4, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 4).unwrap()).unwrap();
        g.set_output(c).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(2)).unwrap();
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            let fake = run_quantized(
                &g,
                &model,
                &plan,
                QuantExecOptions {
                    mode: ExecMode::Fake,
                    ..Default::default()
                },
                &samples[0],
            )
            .unwrap();
            let int = run_quantized(
                &g,
                &model,
                &plan,
                QuantExecOptions {
                    mode: ExecMode::Int,
                    ..Default::default()
                },
                &samples[0],
            )
            .unwrap();
            let rel =
                stats::l2_distance(fake.data(), int.data()) / stats::l2_norm(int.data()).max(1e-6);
            assert!(rel < 1e-4, "depthwise paths disagree: {rel}");
        }
    }

    #[test]
    fn batched_run_is_bit_exact_with_per_sample_in_both_modes() {
        let (g, model, samples) = prepared(139, 2);
        let stacked = Tensor::stack(&samples[..4]).unwrap();
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][1] = true;
        mixed.low_groups[1][0] = true;
        for plan in [
            MixedPlan::all_high(&model),
            MixedPlan::all_low(&model),
            mixed,
        ] {
            for mode in [ExecMode::Fake, ExecMode::Int] {
                let opts = QuantExecOptions {
                    mode,
                    ..Default::default()
                };
                let yb = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
                for (i, s) in samples[..4].iter().enumerate() {
                    let yi = run_quantized(&g, &model, &plan, opts, s).unwrap();
                    let ybi = yb.index_axis0(i).unwrap();
                    assert_eq!(ybi.dims(), yi.dims());
                    for (a, b) in ybi.data().iter().zip(yi.data().iter()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{mode:?} batched diverged at sample {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_depthwise_conv_is_bit_exact() {
        let mut rng = seeded(140);
        let mut g = Graph::new("dw_batch");
        let x = g.input();
        let w = Tensor::randn([4, 1, 3, 3], 0.0, 0.4, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 4).unwrap()).unwrap();
        g.set_output(c).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(2)).unwrap();
        let stacked = Tensor::stack(&samples).unwrap();
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            for mode in [ExecMode::Fake, ExecMode::Int] {
                let opts = QuantExecOptions {
                    mode,
                    ..Default::default()
                };
                let yb = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
                for (i, s) in samples.iter().enumerate() {
                    let yi = run_quantized(&g, &model, &plan, opts, s).unwrap();
                    for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{mode:?} depthwise sample {i}");
                    }
                }
            }
        }
    }

    /// Serializes the cache tests: their counter-delta assertions read
    /// the global telemetry counters, which other cache tests bump.
    fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one sample through a hook with the given cache.
    fn run_cached(
        g: &Graph,
        model: &QuantizedModel,
        plan: &MixedPlan,
        opts: QuantExecOptions,
        cache: Option<Arc<PackCache>>,
        x: &Tensor,
    ) -> Tensor {
        let mut hook = QuantCompute::with_cache(model, plan.clone(), opts, cache).unwrap();
        crate::exec::run(g, x, &mut hook).unwrap()
    }

    #[test]
    fn pack_cache_is_bit_exact_with_uncached_and_hits_on_reuse() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(141, 2);
        let opts = QuantExecOptions {
            mode: ExecMode::Int,
            ..Default::default()
        };
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][1] = true;
        mixed.low_groups[1][0] = true;
        let cache = Arc::new(PackCache::new());
        for plan in [
            MixedPlan::all_high(&model),
            MixedPlan::all_low(&model),
            mixed,
        ] {
            for s in &samples[..3] {
                let base = run_quantized(&g, &model, &plan, opts, s).unwrap();
                let cached = run_cached(&g, &model, &plan, opts, Some(cache.clone()), s);
                for (a, b) in base.data().iter().zip(cached.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cached output diverged");
                }
            }
        }
        assert!(cache.resident_bytes() > 0, "cache stayed empty");
        // A re-run over a warm cache must hit, not rebuild.
        let before = tel::counters();
        let _ = run_cached(
            &g,
            &model,
            &MixedPlan::all_low(&model),
            opts,
            Some(cache.clone()),
            &samples[0],
        );
        let after = tel::counters();
        assert!(
            after.pack_cache_hits > before.pack_cache_hits,
            "no hits on warm cache"
        );
        assert_eq!(
            after.pack_cache_misses, before.pack_cache_misses,
            "warm cache rebuilt entries"
        );
    }

    #[test]
    fn pack_cache_batched_runs_are_bit_exact() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(142, 2);
        let stacked = Tensor::stack(&samples[..4]).unwrap();
        let opts = QuantExecOptions {
            mode: ExecMode::Int,
            ..Default::default()
        };
        let cache = Arc::new(PackCache::new());
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][0] = true;
        for plan in [MixedPlan::all_low(&model), mixed] {
            let base = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
            let mut hook =
                QuantCompute::with_cache(&model, plan.clone(), opts, Some(cache.clone())).unwrap();
            let cached = crate::exec::run_batch(&g, &stacked, &mut hook).unwrap();
            drop(hook);
            for (a, b) in base.data().iter().zip(cached.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached batch diverged");
            }
        }
    }

    #[test]
    fn pack_cache_prewarm_covers_every_band() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(143, 2);
        let opts = QuantExecOptions {
            mode: ExecMode::Int,
            ..Default::default()
        };
        let cache = Arc::new(PackCache::new());
        cache.prewarm(&g, &model, opts).unwrap();
        let warm_bytes = cache.resident_bytes();
        assert!(warm_bytes > 0, "prewarm built nothing");
        // No plan at any level may trigger a build after prewarm.
        let before = tel::counters();
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            let _ = run_cached(&g, &model, &plan, opts, Some(cache.clone()), &samples[0]);
        }
        let after = tel::counters();
        assert_eq!(
            after.pack_cache_misses, before.pack_cache_misses,
            "prewarmed cache missed"
        );
        assert_eq!(
            cache.resident_bytes(),
            warm_bytes,
            "cache grew after prewarm"
        );
    }

    #[test]
    fn pack_cache_invalidate_and_option_change_rebuild() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(144, 2);
        let opts = QuantExecOptions {
            mode: ExecMode::Int,
            ..Default::default()
        };
        let plan = MixedPlan::all_low(&model);
        let cache = Arc::new(PackCache::new());
        let y0 = run_cached(&g, &model, &plan, opts, Some(cache.clone()), &samples[0]);
        cache.invalidate();
        assert_eq!(cache.resident_bytes(), 0);
        let y1 = run_cached(&g, &model, &plan, opts, Some(cache.clone()), &samples[0]);
        for (a, b) in y0.data().iter().zip(y1.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Changing the lowering options must flush stale entries (the
        // fingerprint, not the caller, owns this) and still be exact.
        let opts2 = QuantExecOptions {
            mode: ExecMode::Int,
            low_bits: QuantBits::B2,
            ..Default::default()
        };
        let base = run_quantized(&g, &model, &plan, opts2, &samples[0]).unwrap();
        let cached = run_cached(&g, &model, &plan, opts2, Some(cache.clone()), &samples[0]);
        for (a, b) in base.data().iter().zip(cached.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "stale entries served after opts change"
            );
        }
    }

    #[test]
    fn lowering_error_smaller_than_naive_for_small_range_groups() {
        // The effective-bit extraction must make 100% 4-bit much closer to
        // the 8-bit output than naive top-bit lowering would be. We check
        // via the 2-bit mode upper bound: B4 lowering error < B2 error.
        let (g, model, samples) = prepared(138, 2);
        let plan = MixedPlan::all_low(&model);
        let y8 = run_quantized(
            &g,
            &model,
            &MixedPlan::all_high(&model),
            QuantExecOptions::default(),
            &samples[4],
        )
        .unwrap();
        let y4 =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[4]).unwrap();
        let y2 = run_quantized(
            &g,
            &model,
            &plan,
            QuantExecOptions {
                low_bits: QuantBits::B2,
                ..Default::default()
            },
            &samples[4],
        )
        .unwrap();
        let e4 = stats::l2_distance(y8.data(), y4.data());
        let e2 = stats::l2_distance(y8.data(), y2.data());
        assert!(e4 < e2, "4-bit error {e4} must beat 2-bit error {e2}");
    }
}
