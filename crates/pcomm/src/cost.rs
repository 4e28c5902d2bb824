//! Calibrated α-β cost model, machine profiles, and the trace-driven
//! scaling projector.
//!
//! The reproduction runs ranks as threads on one machine, so wall-clock
//! time at large `p` is not directly measurable. Each pipeline stage
//! instead records, per rank, deterministic compute work
//! ([`crate::work`]) and the communication it issued; this module turns
//! those records into modeled seconds at arbitrary node counts.
//!
//! Three layers:
//!
//! 1. [`MachineProfile`] — a versioned JSON document holding the postal
//!    parameters (α seconds/message, β seconds/byte) and the per-op cost
//!    of every [`CostClass`], produced by the `calibrate` bench bin and
//!    installable process-wide.
//! 2. [`CostModel`] — prices a [`StageCost`]. [`CostModel::stage`] is
//!    **shape-aware**: each collective pays its algorithm's cost (a tree
//!    broadcast pays `⌈log₂ m⌉·α + 2·b·β`, an all-to-all pays
//!    per-destination α, a linear exscan pays a chain), following the
//!    Sparse-SUMMA communication analyses of Buluç & Gilbert; the flat
//!    postal charge `α·msgs + β·bytes` prices only the residual
//!    point-to-point traffic.
//! 3. [`project`] — replays per-stage extracts of a recorded trace
//!    (see `obs::project`) at a hypothetical node count: total work is
//!    divided evenly over the target ranks and every collective is
//!    re-priced at the target communicator sizes with per-kind growth
//!    laws ([`Growth`]), yielding the paper's Fig. 9/10-style
//!    compute-vs-communication breakdowns up to p = 2025.

use std::collections::BTreeMap;

use obs::JsonValue;

use crate::stats::CommStats;
use crate::work::{self, CostClass, COST_CLASSES};

/// Schema version of the machine-profile JSON (bump on layout changes).
/// v2 added `mem_growth`: per-structure byte-growth laws mirroring the
/// time-growth laws, so the projector can report per-rank peak RSS.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// The default per-structure memory growth laws, keyed by the watermark
/// names probed via `obs::alloc::watermark` (the `mem.watermark.` gauge
/// prefix stripped):
///
/// * `seqstore.store` — a rank holds the sequences of its grid row and
///   column, 2n/q of them: bytes ∝ 1/q.
/// * `sparse.accum` — SpGEMM hash accumulators cover a C block row slab,
///   a 1/q vertical slice of the output: bytes ∝ 1/q.
/// * `sparse.triples` — a rank's 1/p share of the globally fixed triple
///   volume (PSG construction / transpose shuffles): bytes ∝ 1/p.
/// * `pastis.pending` — the pending alignment-pair pool over this rank's
///   C block, a 1/p share of the nnz: bytes ∝ 1/p.
/// * `align.scratch` — thread-local DP scratch sized by the longest
///   sequence pair, not the grid: constant.
pub const MEM_GROWTH_DEFAULTS: [(&str, Growth); 5] = [
    ("seqstore.store", Growth::InvQ),
    ("sparse.accum", Growth::InvQ),
    ("sparse.triples", Growth::InvP),
    ("pastis.pending", Growth::InvP),
    ("align.scratch", Growth::Const),
];

/// A calibrated description of the host: postal parameters plus the per-op
/// nanosecond cost of every compute [`CostClass`]. Serialized as JSON
/// (`machine_profile.json`) by the `calibrate` bench bin.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub version: u64,
    /// Free-form provenance: host description, core count, date.
    pub host: String,
    /// Seconds of latency per message.
    pub alpha: f64,
    /// Seconds per byte moved.
    pub beta: f64,
    /// Factor by which the modeled machine outruns this host's serialized
    /// thread execution for compute (1.0 = take measured work as-is).
    pub compute_scale: f64,
    /// ns per op for every cost class, keyed by [`CostClass::key`].
    pub cost_ns: BTreeMap<String, f64>,
    /// Keys of the classes that were actually measured; the rest carry
    /// the documented defaults.
    pub calibrated: Vec<String>,
    /// Per-structure byte-growth laws, keyed by watermark name (schema
    /// v2; see [`MEM_GROWTH_DEFAULTS`]). Structures not listed project
    /// conservatively as [`Growth::Const`].
    pub mem_growth: BTreeMap<String, Growth>,
}

impl MachineProfile {
    /// The built-in profile: documented per-class defaults and
    /// Cray-XC40-class postal parameters (~1 µs latency, ~8 GB/s
    /// effective per-node bandwidth), matching the paper's machine.
    pub fn defaults() -> MachineProfile {
        MachineProfile {
            version: PROFILE_SCHEMA_VERSION,
            host: "builtin-defaults (uncalibrated)".into(),
            alpha: 1.0e-6,
            beta: 1.0 / 8.0e9,
            compute_scale: 1.0,
            cost_ns: COST_CLASSES
                .iter()
                .map(|c| (c.key().to_string(), c.default_milli_ns() as f64 * 1e-3))
                .collect(),
            calibrated: Vec::new(),
            mem_growth: MEM_GROWTH_DEFAULTS
                .iter()
                .map(|&(k, g)| (k.to_string(), g))
                .collect(),
        }
    }

    /// The profile's ns/op for `class` (default when the key is absent).
    pub fn class_ns(&self, class: CostClass) -> f64 {
        self.cost_ns
            .get(class.key())
            .copied()
            .unwrap_or(class.default_milli_ns() as f64 * 1e-3)
    }

    /// Install the profile's compute constants into the process-wide
    /// [`crate::work`] cost table so subsequently recorded work uses the
    /// calibrated values. Call before launching a world.
    pub fn install(&self) {
        for &c in &COST_CLASSES {
            let milli = (self.class_ns(c) * 1e3).round().max(1.0) as u64;
            work::set_cost_milli_ns(c, milli);
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("schema".into(), JsonValue::Str("machine_profile".into()));
        o.insert("version".into(), JsonValue::Num(self.version as f64));
        o.insert("host".into(), JsonValue::Str(self.host.clone()));
        o.insert("alpha_secs".into(), JsonValue::Num(self.alpha));
        o.insert("beta_secs_per_byte".into(), JsonValue::Num(self.beta));
        o.insert("compute_scale".into(), JsonValue::Num(self.compute_scale));
        o.insert(
            "cost_ns".into(),
            JsonValue::Obj(
                self.cost_ns
                    .iter()
                    .map(|(k, &v)| (k.clone(), JsonValue::Num(v)))
                    .collect(),
            ),
        );
        o.insert(
            "calibrated".into(),
            JsonValue::Arr(
                self.calibrated
                    .iter()
                    .map(|k| JsonValue::Str(k.clone()))
                    .collect(),
            ),
        );
        o.insert(
            "mem_growth".into(),
            JsonValue::Obj(
                self.mem_growth
                    .iter()
                    .map(|(k, g)| (k.clone(), JsonValue::Str(g.key().into())))
                    .collect(),
            ),
        );
        JsonValue::Obj(o)
    }

    /// Parse and validate a profile document. This is also the schema
    /// check the bench gate runs: unknown cost keys, a missing field, a
    /// wrong version, or a non-positive parameter are errors.
    pub fn from_json(v: &JsonValue) -> Result<MachineProfile, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("machine profile: missing numeric field `{k}`"))
        };
        if v.get("schema").and_then(JsonValue::as_str) != Some("machine_profile") {
            return Err("machine profile: `schema` must be \"machine_profile\"".into());
        }
        let version = num("version")? as u64;
        if version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "machine profile: version {version} unsupported (want {PROFILE_SCHEMA_VERSION})"
            ));
        }
        let host = v
            .get("host")
            .and_then(JsonValue::as_str)
            .ok_or("machine profile: missing `host`")?
            .to_string();
        let alpha = num("alpha_secs")?;
        let beta = num("beta_secs_per_byte")?;
        let compute_scale = num("compute_scale")?;
        for (name, x) in [
            ("alpha_secs", alpha),
            ("beta_secs_per_byte", beta),
            ("compute_scale", compute_scale),
        ] {
            if !(x > 0.0 && x.is_finite()) {
                return Err(format!("machine profile: `{name}` must be positive"));
            }
        }
        let mut cost_ns = BTreeMap::new();
        match v.get("cost_ns") {
            Some(JsonValue::Obj(m)) => {
                for (k, x) in m {
                    let c = CostClass::from_key(k)
                        .ok_or_else(|| format!("machine profile: unknown cost class `{k}`"))?;
                    let ns = x
                        .as_f64()
                        .filter(|n| *n > 0.0 && n.is_finite())
                        .ok_or_else(|| format!("machine profile: cost_ns.{k} must be positive"))?;
                    cost_ns.insert(c.key().to_string(), ns);
                }
            }
            _ => return Err("machine profile: missing `cost_ns` object".into()),
        }
        let calibrated = match v.get("calibrated") {
            Some(JsonValue::Arr(a)) => a
                .iter()
                .map(|x| {
                    x.as_str()
                        .and_then(|s| CostClass::from_key(s).map(|c| c.key().to_string()))
                        .ok_or_else(|| format!("machine profile: bad calibrated entry {x}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            _ => return Err("machine profile: `calibrated` must be an array".into()),
        };
        let mut mem_growth = BTreeMap::new();
        match v.get("mem_growth") {
            Some(JsonValue::Obj(m)) => {
                for (k, x) in m {
                    let g = x
                        .as_str()
                        .and_then(Growth::from_key)
                        .ok_or_else(|| format!("machine profile: mem_growth.{k} has bad law"))?;
                    mem_growth.insert(k.clone(), g);
                }
            }
            _ => return Err("machine profile: missing `mem_growth` object (schema v2)".into()),
        }
        Ok(MachineProfile {
            version,
            host,
            alpha,
            beta,
            compute_scale,
            cost_ns,
            calibrated,
            mem_growth,
        })
    }

    /// Load a profile from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<MachineProfile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("machine profile: read {}: {e}", path.display()))?;
        Self::from_json(&JsonValue::parse(&text)?)
    }

    /// Write the profile as pretty-enough JSON (one top-level key per
    /// line via the compact writer — the document is small).
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, format!("{}\n", self.to_json()))
            .map_err(|e| format!("machine profile: write {}: {e}", path.display()))
    }
}

/// Postal-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds of latency per message.
    pub alpha: f64,
    /// Seconds per byte moved.
    pub beta: f64,
    /// Factor by which real parallel hardware outruns this host's serialized
    /// thread execution for compute (1.0 = take measured thread time as-is).
    pub compute_scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let p = MachineProfile::defaults();
        CostModel {
            alpha: p.alpha,
            beta: p.beta,
            compute_scale: p.compute_scale,
        }
    }
}

/// The collective algorithms the runtime implements, as cost shapes. The
/// variants mirror the `pcomm.*` span names of `collectives.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollShape {
    /// Binomial-tree broadcast.
    Bcast,
    /// Binomial-tree reduction.
    Reduce,
    /// Reduce + broadcast.
    Allreduce,
    /// Linear gather to a root.
    Gather,
    /// Gather + broadcast of the concatenation.
    Allgather,
    /// Personalized all-to-all: one message per destination.
    Alltoallv,
    /// Reduce + broadcast of one byte.
    Barrier,
    /// Linear rank chain.
    Exscan,
    /// Raw point-to-point traffic (the sequence-exchange fence).
    PointToPoint,
}

impl CollShape {
    /// Stable serde key.
    pub fn key(self) -> &'static str {
        match self {
            CollShape::Bcast => "bcast",
            CollShape::Reduce => "reduce",
            CollShape::Allreduce => "allreduce",
            CollShape::Gather => "gather",
            CollShape::Allgather => "allgather",
            CollShape::Alltoallv => "alltoallv",
            CollShape::Barrier => "barrier",
            CollShape::Exscan => "exscan",
            CollShape::PointToPoint => "p2p",
        }
    }

    /// Payload bytes per member per call, recovered from the wire volume
    /// one collective put on the network (the inverse of each algorithm's
    /// transmission count; `Σ_ranks bytes_sent` of the collective's spans
    /// divided by the number of distinct collectives gives the wire
    /// volume).
    pub fn payload_from_wire(self, m: usize, wire_bytes: f64) -> f64 {
        let m = m as f64;
        if m <= 1.0 {
            return 0.0;
        }
        match self {
            // Tree bcast/reduce and the linear gather/exscan transmit the
            // payload m−1 times.
            CollShape::Bcast | CollShape::Reduce | CollShape::Gather | CollShape::Exscan => {
                wire_bytes / (m - 1.0)
            }
            // Reduce then broadcast: 2(m−1) transmissions.
            CollShape::Allreduce => wire_bytes / (2.0 * (m - 1.0)),
            // Gather ((m−1)·b) then broadcast of the concatenation
            // ((m−1)·m·b).
            CollShape::Allgather => wire_bytes / ((m - 1.0) * (m + 1.0)),
            // Every rank ships its whole personalized payload once.
            CollShape::Alltoallv => wire_bytes / m,
            CollShape::Barrier | CollShape::PointToPoint => 0.0,
        }
    }
}

/// One collective family's aggregate within a stage, in model terms.
#[derive(Debug, Clone, PartialEq)]
pub struct CollAgg {
    /// Cost shape.
    pub shape: CollShape,
    /// Ranks participating in each such collective (communicator size).
    pub comm_size: usize,
    /// Collectives a rank issues during the stage — for
    /// [`CollShape::PointToPoint`], the rank's message count instead.
    pub calls: f64,
    /// Payload bytes each member contributes per call — for
    /// [`CollShape::PointToPoint`], the rank's total bytes instead.
    pub payload_bytes: f64,
}

/// Per-stage, per-rank measurement: compute seconds plus communication.
/// `comm` holds raw counter deltas; `colls` optionally breaks the
/// communication into shaped collectives (then `comm` should carry only
/// the residual point-to-point traffic, or zeros).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageCost {
    /// Seconds of pure computation on the critical (max) rank.
    pub compute_secs: f64,
    /// Communication issued by the critical rank during the stage, not
    /// covered by `colls`.
    pub comm: CommStats,
    /// Shaped collective aggregates (empty = price `comm` flat).
    pub colls: Vec<CollAgg>,
}

impl StageCost {
    /// Critical path across ranks: element-wise max of the measured
    /// fields. `colls` is taken from whichever side has one (projection
    /// outputs are already per-stage aggregates and are not max-combined).
    pub fn max(self, rhs: StageCost) -> StageCost {
        StageCost {
            compute_secs: self.compute_secs.max(rhs.compute_secs),
            comm: self.comm.max(rhs.comm),
            colls: if self.colls.is_empty() {
                rhs.colls
            } else {
                self.colls
            },
        }
    }

    /// Aggregate across ranks (useful for total volume reporting).
    pub fn sum(self, rhs: StageCost) -> StageCost {
        StageCost {
            compute_secs: self.compute_secs + rhs.compute_secs,
            comm: self.comm.sum(rhs.comm),
            colls: if self.colls.is_empty() {
                rhs.colls
            } else {
                self.colls
            },
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("compute_secs".into(), JsonValue::Num(self.compute_secs));
        o.insert("comm".into(), comm_stats_to_json(&self.comm));
        o.insert(
            "colls".into(),
            JsonValue::Arr(self.colls.iter().map(CollAgg::to_json).collect()),
        );
        JsonValue::Obj(o)
    }
}

impl CollAgg {
    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("shape".into(), JsonValue::Str(self.shape.key().into()));
        o.insert("comm_size".into(), JsonValue::Num(self.comm_size as f64));
        o.insert("calls".into(), JsonValue::Num(self.calls));
        o.insert("payload_bytes".into(), JsonValue::Num(self.payload_bytes));
        JsonValue::Obj(o)
    }
}

fn comm_stats_to_json(c: &CommStats) -> JsonValue {
    let mut o = BTreeMap::new();
    o.insert("bytes_sent".into(), JsonValue::Num(c.bytes_sent as f64));
    o.insert("bytes_recv".into(), JsonValue::Num(c.bytes_recv as f64));
    o.insert("msgs_sent".into(), JsonValue::Num(c.msgs_sent as f64));
    o.insert("msgs_recv".into(), JsonValue::Num(c.msgs_recv as f64));
    o.insert("wait_nanos".into(), JsonValue::Num(c.wait_nanos as f64));
    JsonValue::Obj(o)
}

impl CostModel {
    /// A model with the profile's postal parameters.
    pub fn from_profile(p: &MachineProfile) -> CostModel {
        CostModel {
            alpha: p.alpha,
            beta: p.beta,
            compute_scale: p.compute_scale,
        }
    }

    /// Seconds one rank spends in `coll.calls` collectives of the given
    /// shape: per-collective algorithm cost × calls. Tree collectives pay
    /// `⌈log₂ m⌉·α + 2·b·β`, the personalized all-to-all pays one α per
    /// destination, linear chains pay `(m−1)·(α + b·β)`.
    pub fn coll_seconds(&self, coll: &CollAgg) -> f64 {
        if coll.shape == CollShape::PointToPoint {
            return self.alpha * coll.calls + self.beta * coll.payload_bytes;
        }
        if coll.comm_size <= 1 {
            return 0.0;
        }
        let m = coll.comm_size as f64;
        let lg = m.log2().ceil();
        let b = coll.payload_bytes * self.beta;
        let per_call = match coll.shape {
            CollShape::Bcast | CollShape::Reduce | CollShape::Allreduce => {
                lg * self.alpha + 2.0 * b
            }
            CollShape::Gather | CollShape::Exscan => (m - 1.0) * (self.alpha + b),
            // Linear gather, then a tree broadcast of the m·b concatenation.
            CollShape::Allgather => (m - 1.0) * (self.alpha + b) + lg * self.alpha + 2.0 * m * b,
            // One send per destination; the payload is the rank's whole
            // personalized buffer (sent once and received once).
            CollShape::Alltoallv => (m - 1.0) * self.alpha + 2.0 * b,
            CollShape::Barrier => 2.0 * lg * self.alpha,
            CollShape::PointToPoint => unreachable!("handled above"),
        };
        coll.calls * per_call
    }

    /// Shape-aware modeled seconds for a stage: compute, plus each
    /// collective priced by its algorithm, plus the flat postal charge
    /// (`α·msgs + β·bytes`) on the residual point-to-point counters.
    pub fn stage(&self, stage: &StageCost) -> f64 {
        let msgs = stage.comm.msgs_sent.max(stage.comm.msgs_recv) as f64;
        let bytes = stage.comm.bytes_sent.max(stage.comm.bytes_recv) as f64;
        stage.compute_secs / self.compute_scale
            + self.alpha * msgs
            + self.beta * bytes
            + stage
                .colls
                .iter()
                .map(|c| self.coll_seconds(c))
                .sum::<f64>()
    }
}

/// How a projected quantity scales from the recorded grid to the target
/// grid (`q = √p` is the process-grid side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Invariant in p.
    Const,
    /// ∝ q — e.g. SUMMA rounds: a rank joins 2q broadcasts.
    LinearQ,
    /// ∝ 1/q — a rank's share of a row/column-partitioned quantity.
    InvQ,
    /// ∝ 1/p — a rank's share of a globally fixed quantity.
    InvP,
}

impl Growth {
    /// Stable serde key (the `mem_growth` values of the profile JSON).
    pub fn key(self) -> &'static str {
        match self {
            Growth::Const => "const",
            Growth::LinearQ => "linear_q",
            Growth::InvQ => "inv_q",
            Growth::InvP => "inv_p",
        }
    }

    /// Inverse of [`Growth::key`].
    pub fn from_key(k: &str) -> Option<Growth> {
        [Growth::Const, Growth::LinearQ, Growth::InvQ, Growth::InvP]
            .into_iter()
            .find(|g| g.key() == k)
    }

    /// Multiplier taking a per-rank quantity from grid `p_from` to
    /// `p_to` (both perfect squares).
    pub fn factor(self, p_from: usize, p_to: usize) -> f64 {
        let (qf, qt) = (grid_side(p_from) as f64, grid_side(p_to) as f64);
        match self {
            Growth::Const => 1.0,
            Growth::LinearQ => qt / qf,
            Growth::InvQ => qf / qt,
            Growth::InvP => (qf * qf) / (qt * qt),
        }
    }
}

/// Which communicator a collective kind runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The world communicator (size p).
    World,
    /// A grid row/column subcommunicator (size q = √p).
    GridRow,
}

impl Scope {
    /// Communicator size under `p` total ranks.
    pub fn size(self, p: usize) -> usize {
        match self {
            Scope::World => p,
            Scope::GridRow => grid_side(p),
        }
    }
}

/// Projection rule for one collective span kind: its cost shape, the
/// communicator it runs over, and how per-rank calls and per-call payload
/// scale with the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindRule {
    pub shape: CollShape,
    pub scope: Scope,
    pub calls: Growth,
    pub payload: Growth,
}

/// The default rule per `pcomm.*` collective span, derived from how the
/// pipeline uses each primitive:
///
/// * `bcast` — the Sparse-SUMMA row/column panel broadcasts: a rank joins
///   2q of them per multiply (calls ∝ q) over a q-sized subcommunicator,
///   and each panel is a 1/p block of the operand (payload ∝ 1/p).
/// * `allreduce`/`reduce`/`exscan`/`barrier` — world-sized scalar
///   bookkeeping: constant calls and payload.
/// * `gather`/`allgather` — result collection / k-mer count exchange of
///   per-rank shares (payload ∝ 1/p).
/// * `alltoallv` — triple/transpose shuffles of globally fixed volume:
///   per-rank payload ∝ 1/p.
/// * `waitall` — the overlapped sequence exchange fence: a rank fetches
///   its block's row/column sequences from O(q) owners (calls ∝ q) with
///   total bytes ∝ the 2n/q sequences it needs (payload ∝ 1/q).
pub const KIND_RULES: [(&str, KindRule); 10] = [
    (
        "pcomm.bcast",
        KindRule {
            shape: CollShape::Bcast,
            scope: Scope::GridRow,
            calls: Growth::LinearQ,
            payload: Growth::InvP,
        },
    ),
    (
        // Nonblocking SUMMA panel broadcast: same traffic pattern and
        // scaling as the blocking `pcomm.bcast` — only its completion is
        // deferred, which the overlap dissection (not the per-stage price)
        // accounts for.
        "pcomm.ibcast",
        KindRule {
            shape: CollShape::Bcast,
            scope: Scope::GridRow,
            calls: Growth::LinearQ,
            payload: Growth::InvP,
        },
    ),
    (
        "pcomm.reduce",
        KindRule {
            shape: CollShape::Reduce,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::Const,
        },
    ),
    (
        "pcomm.allreduce",
        KindRule {
            shape: CollShape::Allreduce,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::Const,
        },
    ),
    (
        "pcomm.gather",
        KindRule {
            shape: CollShape::Gather,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::InvP,
        },
    ),
    (
        "pcomm.allgather",
        KindRule {
            shape: CollShape::Allgather,
            scope: Scope::GridRow,
            calls: Growth::Const,
            payload: Growth::InvP,
        },
    ),
    (
        "pcomm.alltoallv",
        KindRule {
            shape: CollShape::Alltoallv,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::InvP,
        },
    ),
    (
        "pcomm.barrier",
        KindRule {
            shape: CollShape::Barrier,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::Const,
        },
    ),
    (
        "pcomm.exscan",
        KindRule {
            shape: CollShape::Exscan,
            scope: Scope::World,
            calls: Growth::Const,
            payload: Growth::Const,
        },
    ),
    (
        "pcomm.waitall",
        KindRule {
            shape: CollShape::PointToPoint,
            scope: Scope::World,
            calls: Growth::LinearQ,
            payload: Growth::InvQ,
        },
    ),
];

/// Span names of every collective kind the projector prices, in rule
/// order — pass to `obs::project::extract_stages`.
pub fn kind_names() -> Vec<&'static str> {
    KIND_RULES.iter().map(|&(n, _)| n).collect()
}

fn rule_for(kind: &str) -> Option<KindRule> {
    KIND_RULES
        .iter()
        .find(|&&(n, _)| n == kind)
        .map(|&(_, r)| r)
}

/// Integer square root for perfect-square grid sizes (1 for p = 0/1).
pub fn grid_side(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    q.max(1)
}

/// One stage of a [`Projection`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedStage {
    /// Paper component label (e.g. `(AS)AT`).
    pub label: String,
    /// Modeled compute seconds on the *critical* rank at the target p:
    /// the balanced share inflated by the stage's measured λ.
    pub compute_secs: f64,
    /// Modeled communication seconds per rank at the target p.
    pub comm_secs: f64,
    /// Measured per-stage work imbalance at recording time, max/mean of
    /// the per-rank deterministic work (1.0 when the stage recorded no
    /// work). The projection assumes the recorded skew persists at the
    /// target grid — partitioning is data-driven, not p-driven.
    pub lambda: f64,
    /// The shaped stage cost the seconds were priced from.
    pub cost: StageCost,
}

/// A recorded run replayed at a hypothetical node count.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Target rank count.
    pub p: usize,
    /// Rank count of the recording the projection was built from.
    pub p_recorded: usize,
    /// Measured compute imbalance at recording time: max-rank work /
    /// mean-rank work over the whole run (1.0 = perfectly balanced).
    /// Stage compute is additionally scaled by each stage's own λ (see
    /// [`ProjectedStage::lambda`]); this scalar is the run-level summary.
    pub imbalance: f64,
    /// Stages in pipeline order.
    pub stages: Vec<ProjectedStage>,
}

impl Projection {
    /// Modeled end-to-end seconds (stages run back to back).
    pub fn total_secs(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.compute_secs + s.comm_secs)
            .sum()
    }

    /// Modeled seconds of one stage by label (0 when absent).
    pub fn stage_secs(&self, label: &str) -> f64 {
        self.stages
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.compute_secs + s.comm_secs)
            .unwrap_or(0.0)
    }

    /// A stage's share of the modeled total (the alignment-share table).
    pub fn share(&self, label: &str) -> f64 {
        let total = self.total_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.stage_secs(label) / total
        }
    }

    /// What-if: overlap `comm_stage`'s broadcast traffic with
    /// `compute_stage`'s computation (the planned SUMMA-stage-k+1
    /// broadcast / stage-k alignment overlap). The hidden time is
    /// whatever part of the broadcast seconds fits under the compute
    /// seconds; the result quantifies the payoff before anyone builds
    /// the overlap.
    pub fn whatif_overlap(
        &self,
        model: &CostModel,
        comm_stage: &str,
        compute_stage: &str,
    ) -> WhatIfOverlap {
        let bcast_secs = self
            .stages
            .iter()
            .find(|s| s.label == comm_stage)
            .map(|s| {
                s.cost
                    .colls
                    .iter()
                    .filter(|c| c.shape == CollShape::Bcast)
                    .map(|c| model.coll_seconds(c))
                    .sum::<f64>()
            })
            .unwrap_or(0.0);
        let compute_secs = self
            .stages
            .iter()
            .find(|s| s.label == compute_stage)
            .map(|s| s.compute_secs)
            .unwrap_or(0.0);
        let baseline_secs = self.total_secs();
        let hidden_secs = bcast_secs.min(compute_secs);
        WhatIfOverlap {
            p: self.p,
            baseline_secs,
            hidden_secs,
            overlapped_secs: baseline_secs - hidden_secs,
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("p".into(), JsonValue::Num(self.p as f64));
        o.insert("p_recorded".into(), JsonValue::Num(self.p_recorded as f64));
        o.insert("imbalance".into(), JsonValue::Num(self.imbalance));
        o.insert(
            "stages".into(),
            JsonValue::Arr(
                self.stages
                    .iter()
                    .map(|s| {
                        let mut so = BTreeMap::new();
                        so.insert("label".into(), JsonValue::Str(s.label.clone()));
                        so.insert("compute_secs".into(), JsonValue::Num(s.compute_secs));
                        so.insert("comm_secs".into(), JsonValue::Num(s.comm_secs));
                        so.insert("lambda".into(), JsonValue::Num(s.lambda));
                        so.insert("cost".into(), s.cost.to_json());
                        JsonValue::Obj(so)
                    })
                    .collect(),
            ),
        );
        o.insert("total_secs".into(), JsonValue::Num(self.total_secs()));
        JsonValue::Obj(o)
    }
}

/// A quantified overlap hypothesis (see [`Projection::whatif_overlap`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfOverlap {
    /// Target rank count.
    pub p: usize,
    /// Modeled end-to-end seconds without overlap.
    pub baseline_secs: f64,
    /// Broadcast seconds hidden under the compute stage.
    pub hidden_secs: f64,
    /// Modeled end-to-end seconds with the overlap built.
    pub overlapped_secs: f64,
}

impl WhatIfOverlap {
    /// Critical-path reduction, percent of baseline.
    pub fn saved_pct(&self) -> f64 {
        if self.baseline_secs <= 0.0 {
            0.0
        } else {
            100.0 * self.hidden_secs / self.baseline_secs
        }
    }
}

/// Replay per-stage trace extracts at `p_target` ranks.
///
/// Compute: a stage's total recorded work is divided evenly over the
/// target ranks and then inflated by the stage's measured λ (max/mean of
/// the per-rank deterministic work), so the critical path carries the
/// recorded imbalance instead of assuming balance. λ is held constant
/// across p — PASTIS partitions by data, not by grid, so the skew a
/// dataset induces at the recorded p is the best available estimate at
/// the target p.
/// Communication: each collective kind's recorded calls and recovered
/// per-call payload are scaled by its [`KindRule`] growth laws and priced
/// at the target communicator size; counter traffic not covered by a kind
/// span is charged flat with its total volume split over the target
/// ranks. λ-normalized projections from recordings at different p agree
/// wherever the growth laws hold — the cross-p invariance the tests pin
/// (λ itself is a property of the recording, so only the skew *ranking*
/// is expected to transfer between recordings).
pub fn project(
    extracts: &[obs::project::StageExtract],
    p_recorded: usize,
    model: &CostModel,
    p_target: usize,
) -> Projection {
    let p_rec = p_recorded.max(1) as f64;
    let p_tgt = p_target.max(1) as f64;
    let mut stages = Vec::with_capacity(extracts.len());
    let (mut work_total, mut work_max) = (0u64, 0u64);
    for ex in extracts {
        work_total += ex.work_ns_total;
        work_max += ex.work_ns_max;
        // Measured per-stage imbalance: critical rank over mean rank of
        // the deterministic work ledger (see `obs::imbalance::lambda`).
        let lambda = if ex.work_ns_total == 0 || ex.ranks == 0 {
            1.0
        } else {
            ex.work_ns_max as f64 * ex.ranks as f64 / ex.work_ns_total as f64
        };
        let compute_secs = ex.work_ns_total as f64 * 1e-9 / p_tgt / model.compute_scale * lambda;
        let mut colls: Vec<CollAgg> = Vec::new();
        let mut covered_msgs = 0u64;
        let mut covered_bytes = 0u64;
        for (kind, agg) in &ex.kinds {
            let Some(rule) = rule_for(kind) else { continue };
            covered_msgs += agg
                .counters_total
                .msgs_sent
                .max(agg.counters_total.msgs_recv);
            covered_bytes += agg
                .counters_total
                .bytes_sent
                .max(agg.counters_total.bytes_recv);
            if rule.shape == CollShape::PointToPoint {
                let msgs = agg
                    .counters_total
                    .msgs_sent
                    .max(agg.counters_total.msgs_recv) as f64
                    / p_rec;
                let bytes = agg
                    .counters_total
                    .bytes_sent
                    .max(agg.counters_total.bytes_recv) as f64
                    / p_rec;
                colls.push(CollAgg {
                    shape: CollShape::PointToPoint,
                    comm_size: rule.scope.size(p_target),
                    calls: msgs * rule.calls.factor(p_recorded, p_target),
                    payload_bytes: bytes * rule.payload.factor(p_recorded, p_target),
                });
                continue;
            }
            let m_rec = rule.scope.size(p_recorded);
            if m_rec <= 1 || agg.calls_total == 0 {
                continue; // no communication recorded at this grid
            }
            // Distinct collectives: every member records one span.
            let distinct = agg.calls_total as f64 / m_rec as f64;
            let wire = agg
                .counters_total
                .bytes_sent
                .max(agg.counters_total.bytes_recv) as f64
                / distinct;
            let payload_rec = rule.shape.payload_from_wire(m_rec, wire);
            let calls_rec = agg.calls_total as f64 / p_rec;
            colls.push(CollAgg {
                shape: rule.shape,
                comm_size: rule.scope.size(p_target),
                calls: calls_rec * rule.calls.factor(p_recorded, p_target),
                payload_bytes: payload_rec * rule.payload.factor(p_recorded, p_target),
            });
        }
        // Residual point-to-point traffic outside any kind span: total
        // volume preserved, split over the target ranks.
        let resid_msgs = ex
            .counters_total
            .msgs_sent
            .max(ex.counters_total.msgs_recv)
            .saturating_sub(covered_msgs);
        let resid_bytes = ex
            .counters_total
            .bytes_sent
            .max(ex.counters_total.bytes_recv)
            .saturating_sub(covered_bytes);
        let comm = CommStats {
            msgs_sent: (resid_msgs as f64 / p_tgt).round() as u64,
            bytes_sent: (resid_bytes as f64 / p_tgt).round() as u64,
            ..Default::default()
        };
        let cost = StageCost {
            compute_secs: compute_secs * model.compute_scale,
            comm,
            colls,
        };
        let total = model.stage(&cost);
        stages.push(ProjectedStage {
            label: ex.label.clone(),
            compute_secs,
            comm_secs: (total - compute_secs).max(0.0),
            lambda,
            cost,
        });
    }
    let imbalance = if work_total == 0 {
        1.0
    } else {
        work_max as f64 * p_rec / work_total as f64
    };
    Projection {
        p: p_target,
        p_recorded,
        imbalance,
        stages,
    }
}

/// Per-rank peak-memory projection at a target grid (the memory analogue
/// of [`Projection`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MemProjection {
    /// Target rank count.
    pub p: usize,
    /// Rank count of the recording.
    pub p_recorded: usize,
    /// Sum of the projected per-structure peaks — an upper bound on the
    /// per-rank peak RSS (individual peaks need not coincide in time).
    pub peak_bytes: u64,
    /// Projected per-rank peak bytes per structure, sorted by name (the
    /// JSON round-trip is order-preserving that way).
    pub by_structure: Vec<(String, u64)>,
}

impl MemProjection {
    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("p".into(), JsonValue::Num(self.p as f64));
        o.insert("p_recorded".into(), JsonValue::Num(self.p_recorded as f64));
        o.insert("peak_bytes".into(), JsonValue::Num(self.peak_bytes as f64));
        o.insert(
            "by_structure".into(),
            JsonValue::Obj(
                self.by_structure
                    .iter()
                    .map(|(k, b)| (k.clone(), JsonValue::Num(*b as f64)))
                    .collect(),
            ),
        );
        JsonValue::Obj(o)
    }
}

/// Watermarked structures whose per-rank footprint scales with the width
/// of the out-of-core column batch being processed: the SpGEMM output
/// triples and accumulator cover only the batch's columns of B, and the
/// pending seed-pair queue holds only the batch's candidates. Everything
/// else (sequence store, alignment scratch) is resident regardless of
/// batching and prices as a constant floor.
pub const OOC_BATCH_SCALED: [&str; 3] = ["pastis.pending", "sparse.accum", "sparse.triples"];

/// Split a projected per-rank footprint into its (resident floor,
/// batch-scaled bytes): the second component shrinks `∝ 1/n_batches`
/// under column batching, the first does not. Budget policies must keep
/// the budget above the floor — no batch count frees resident memory.
pub fn ooc_split(mem: &MemProjection) -> (u64, u64) {
    let scaled: u64 = mem
        .by_structure
        .iter()
        .filter(|(n, _)| OOC_BATCH_SCALED.contains(&n.as_str()))
        .map(|&(_, b)| b)
        .sum();
    (mem.peak_bytes - scaled, scaled)
}

/// Out-of-core batching projection at one target grid: how many column
/// batches the sizer would cut to fit the projected monolithic footprint
/// under `budget_bytes`, the resulting per-rank peak, and the makespan
/// after paying the A-panel re-broadcasts every extra batch costs (the
/// restricted-B panels tile the column space, so B traffic is paid once
/// regardless of the batch count).
#[derive(Debug, Clone, PartialEq)]
pub struct OocProjection {
    /// Target rank count.
    pub p: usize,
    /// Per-rank memory budget the sizer was given.
    pub budget_bytes: u64,
    /// Batches the model cuts (1 = the monolithic plan already fits).
    pub n_batches: usize,
    /// Projected per-rank peak under that plan: the constant floor plus
    /// an even `1/n_batches` share of the batch-scaled structures.
    pub mem_peak_bytes: u64,
    /// Monolithic projected peak ([`MemProjection::peak_bytes`]), for the
    /// memory-vs-makespan comparison.
    pub mono_peak_bytes: u64,
    /// Monolithic modeled makespan at this grid.
    pub base_secs: f64,
    /// Batched modeled makespan: `base_secs` plus `(n_batches − 1)` times
    /// the A-side panel-broadcast seconds.
    pub ooc_secs: f64,
}

impl OocProjection {
    /// Batched / monolithic makespan (≥ 1; the price of fitting in RAM).
    pub fn batch_overhead_ratio(&self) -> f64 {
        if self.base_secs > 0.0 {
            self.ooc_secs / self.base_secs
        } else {
            1.0
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("p".into(), JsonValue::Num(self.p as f64));
        o.insert(
            "budget_bytes".into(),
            JsonValue::Num(self.budget_bytes as f64),
        );
        o.insert("n_batches".into(), JsonValue::Num(self.n_batches as f64));
        o.insert(
            "mem_peak_bytes".into(),
            JsonValue::Num(self.mem_peak_bytes as f64),
        );
        o.insert(
            "mono_peak_bytes".into(),
            JsonValue::Num(self.mono_peak_bytes as f64),
        );
        o.insert("base_secs".into(), JsonValue::Num(self.base_secs));
        o.insert("ooc_secs".into(), JsonValue::Num(self.ooc_secs));
        o.insert(
            "batch_overhead_ratio".into(),
            JsonValue::Num(self.batch_overhead_ratio()),
        );
        JsonValue::Obj(o)
    }
}

/// Project the out-of-core batch plan at `mem`'s grid. `base_secs` is the
/// monolithic modeled makespan at the same grid and `rebcast_secs` the
/// A-side panel-broadcast seconds one extra pass over the stationary
/// matrix costs (the caller extracts it from the SUMMA stage's priced
/// collectives). The split between batch-scaled and resident structures
/// follows [`OOC_BATCH_SCALED`].
pub fn project_ooc(
    mem: &MemProjection,
    budget_bytes: u64,
    base_secs: f64,
    rebcast_secs: f64,
) -> OocProjection {
    let (resident, scaled) = ooc_split(mem);
    let avail = budget_bytes.saturating_sub(resident);
    let n_batches = if scaled <= avail {
        1
    } else if avail == 0 {
        // Infeasible budget (the resident floor alone overflows it): the
        // sizer's one-column floor still applies, modeled here as one
        // byte per batch so the overhead term stays finite and damning.
        scaled.max(1) as usize
    } else {
        scaled.div_ceil(avail) as usize
    };
    OocProjection {
        p: mem.p,
        budget_bytes,
        n_batches,
        mem_peak_bytes: resident + scaled.div_ceil(n_batches.max(1) as u64),
        mono_peak_bytes: mem.peak_bytes,
        base_secs,
        ooc_secs: base_secs + (n_batches.saturating_sub(1)) as f64 * rebcast_secs,
    }
}

/// Project per-rank peak memory watermarks recorded at `p_recorded` to
/// `p_target` using the profile's per-structure byte-growth laws.
///
/// `watermarks` is the output of `obs::project::extract_mem_watermarks`:
/// per-structure max-across-ranks peak bytes (the `mem.watermark.` gauge
/// prefix already stripped). Structures without a law in the profile are
/// held constant — the conservative choice, since unmodeled memory that
/// *does* shrink with p only makes the bound looser, never optimistic.
pub fn project_mem(
    watermarks: &[(String, u64)],
    p_recorded: usize,
    profile: &MachineProfile,
    p_target: usize,
) -> MemProjection {
    let mut by_structure = Vec::with_capacity(watermarks.len());
    let mut total = 0u64;
    for (name, bytes) in watermarks {
        let growth = profile
            .mem_growth
            .get(name)
            .copied()
            .unwrap_or(Growth::Const);
        let projected = (*bytes as f64 * growth.factor(p_recorded, p_target)).round() as u64;
        total += projected;
        by_structure.push((name.clone(), projected));
    }
    by_structure.sort();
    MemProjection {
        p: p_target,
        p_recorded,
        peak_bytes: total,
        by_structure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_without_collectives_is_the_postal_formula() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 1e-9,
            compute_scale: 2.0,
        };
        let s = StageCost {
            compute_secs: 4.0,
            comm: CommStats {
                bytes_sent: 1_000_000,
                bytes_recv: 0,
                msgs_sent: 10,
                msgs_recv: 0,
                wait_nanos: 0,
            },
            colls: Vec::new(),
        };
        let t = m.stage(&s);
        assert!((t - (2.0 + 10.0 * 1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn max_takes_critical_path() {
        let a = StageCost {
            compute_secs: 1.0,
            comm: CommStats {
                bytes_sent: 5,
                ..Default::default()
            },
            colls: Vec::new(),
        };
        let b = StageCost {
            compute_secs: 3.0,
            comm: CommStats {
                bytes_sent: 2,
                ..Default::default()
            },
            colls: Vec::new(),
        };
        let m = a.max(b);
        assert_eq!(m.compute_secs, 3.0);
        assert_eq!(m.comm.bytes_sent, 5);
    }

    #[test]
    fn tree_collectives_pay_log_alpha() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 1e-9,
            compute_scale: 1.0,
        };
        let c = CollAgg {
            shape: CollShape::Bcast,
            comm_size: 1024,
            calls: 1.0,
            payload_bytes: 1_000_000.0,
        };
        // ⌈log₂ 1024⌉·α + 2·b·β = 10 µs + 2 ms.
        assert!((m.coll_seconds(&c) - (10.0e-6 + 2.0e-3)).abs() < 1e-12);
        // An allreduce of the same payload costs the same shape.
        let ar = CollAgg {
            shape: CollShape::Allreduce,
            ..c.clone()
        };
        assert_eq!(m.coll_seconds(&ar), m.coll_seconds(&c));
    }

    #[test]
    fn alltoallv_pays_per_destination_alpha() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 0.0,
            compute_scale: 1.0,
        };
        let c = CollAgg {
            shape: CollShape::Alltoallv,
            comm_size: 256,
            calls: 3.0,
            payload_bytes: 0.0,
        };
        assert!((m.coll_seconds(&c) - 3.0 * 255.0 * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn singleton_communicators_are_free() {
        let m = CostModel::default();
        for shape in [CollShape::Bcast, CollShape::Alltoallv, CollShape::Exscan] {
            let c = CollAgg {
                shape,
                comm_size: 1,
                calls: 5.0,
                payload_bytes: 1e9,
            };
            assert_eq!(m.coll_seconds(&c), 0.0);
        }
    }

    #[test]
    fn payload_recovery_inverts_the_wire_volume() {
        // A bcast over m = 8 of payload b puts (m-1)·b on the wire.
        let b = CollShape::Bcast.payload_from_wire(8, 7.0 * 1000.0);
        assert!((b - 1000.0).abs() < 1e-9);
        let ar = CollShape::Allreduce.payload_from_wire(8, 14.0 * 1000.0);
        assert!((ar - 1000.0).abs() < 1e-9);
        let av = CollShape::Alltoallv.payload_from_wire(8, 8.0 * 1000.0);
        assert!((av - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn growth_factors() {
        assert_eq!(Growth::Const.factor(16, 1024), 1.0);
        assert_eq!(Growth::LinearQ.factor(16, 1024), 8.0); // q 4 → 32
        assert_eq!(Growth::InvQ.factor(16, 1024), 0.125);
        assert_eq!(Growth::InvP.factor(16, 1024), 16.0 / 1024.0);
    }

    #[test]
    fn profile_round_trips_and_validates() {
        let mut p = MachineProfile::defaults();
        p.host = "test-host".into();
        p.calibrated = vec!["sw_cell".into()];
        let text = p.to_json().to_string();
        let back = MachineProfile::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        // Unknown cost keys and bad versions are rejected.
        let bad = text.replace("sw_cell", "not_a_class");
        assert!(MachineProfile::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
        let bad = text.replace("\"version\":2", "\"version\":99");
        assert_ne!(bad, text, "version literal must appear in the JSON");
        assert!(MachineProfile::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
        // v2 requires the mem_growth section with known laws.
        let bad = text.replace("inv_q", "quadratic");
        assert!(MachineProfile::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn growth_keys_round_trip() {
        for g in [Growth::Const, Growth::LinearQ, Growth::InvQ, Growth::InvP] {
            assert_eq!(Growth::from_key(g.key()), Some(g));
        }
        assert_eq!(Growth::from_key("cubic"), None);
    }

    #[test]
    fn mem_projection_applies_growth_laws() {
        let profile = MachineProfile::defaults();
        let watermarks = vec![
            ("seqstore.store".to_string(), 1_000_000u64), // InvQ: q 4 → 8
            ("sparse.triples".to_string(), 4_000_000u64), // InvP: 16 → 64
            ("align.scratch".to_string(), 300_000u64),    // Const
            ("unmodeled.thing".to_string(), 700u64),      // Const fallback
        ];
        let m = project_mem(&watermarks, 16, &profile, 64);
        assert_eq!(m.p, 64);
        assert_eq!(m.p_recorded, 16);
        let by: BTreeMap<&str, u64> = m
            .by_structure
            .iter()
            .map(|(k, b)| (k.as_str(), *b))
            .collect();
        assert_eq!(by["seqstore.store"], 500_000);
        assert_eq!(by["sparse.triples"], 1_000_000);
        assert_eq!(by["align.scratch"], 300_000);
        assert_eq!(by["unmodeled.thing"], 700);
        assert_eq!(m.peak_bytes, 500_000 + 1_000_000 + 300_000 + 700);
    }

    #[test]
    fn ooc_projection_cuts_batches_and_prices_rebroadcasts() {
        let mem = MemProjection {
            p: 64,
            p_recorded: 16,
            peak_bytes: 1_000_000,
            by_structure: vec![
                ("align.scratch".to_string(), 100_000),
                ("pastis.pending".to_string(), 150_000),
                ("seqstore.store".to_string(), 300_000),
                ("sparse.accum".to_string(), 50_000),
                ("sparse.triples".to_string(), 400_000),
            ],
        };
        assert_eq!(ooc_split(&mem), (400_000, 600_000));
        // Fits outright: one batch, no overhead.
        let o = project_ooc(&mem, 1_000_000, 10.0, 2.0);
        assert_eq!(o.n_batches, 1);
        assert_eq!(o.mem_peak_bytes, 1_000_000);
        assert_eq!(o.ooc_secs, 10.0);
        assert_eq!(o.batch_overhead_ratio(), 1.0);
        // 200k over the scaled portion → ⌈600k/200k⌉ = 3 batches, two
        // extra passes over the stationary matrix's broadcasts.
        let o = project_ooc(&mem, 600_000, 10.0, 2.0);
        assert_eq!(o.n_batches, 3);
        assert_eq!(o.mem_peak_bytes, 400_000 + 200_000);
        assert_eq!(o.ooc_secs, 14.0);
        assert!((o.batch_overhead_ratio() - 1.4).abs() < 1e-12);
        assert_eq!(o.mono_peak_bytes, 1_000_000);
        // Budget below the resident floor: finite but punitive plan.
        let o = project_ooc(&mem, 300_000, 10.0, 2.0);
        assert_eq!(o.n_batches, 600_000);
        assert!(o.mem_peak_bytes > 300_000);
    }

    #[test]
    fn profile_install_updates_the_work_table() {
        let mut p = MachineProfile::defaults();
        // SubkmerChild is not exercised concurrently by other tests in
        // this crate.
        p.cost_ns.insert("subkmer_child".into(), 1.5);
        p.install();
        assert_eq!(CostClass::SubkmerChild.milli_ns(), 1_500);
        work::reset_costs();
        assert_eq!(
            CostClass::SubkmerChild.milli_ns(),
            CostClass::SubkmerChild.default_milli_ns()
        );
    }

    #[test]
    fn whatif_overlap_hides_min_of_bcast_and_compute() {
        let model = CostModel {
            alpha: 0.0,
            beta: 1.0,
            compute_scale: 1.0,
        };
        let bcast = CollAgg {
            shape: CollShape::Bcast,
            comm_size: 4,
            calls: 1.0,
            payload_bytes: 3.0, // coll_seconds = 2·3·β = 6 s
        };
        let proj = Projection {
            p: 16,
            p_recorded: 4,
            imbalance: 1.0,
            stages: vec![
                ProjectedStage {
                    label: "(AS)AT".into(),
                    compute_secs: 1.0,
                    comm_secs: 6.0,
                    lambda: 1.0,
                    cost: StageCost {
                        compute_secs: 1.0,
                        comm: CommStats::default(),
                        colls: vec![bcast],
                    },
                },
                ProjectedStage {
                    label: "align".into(),
                    compute_secs: 4.0,
                    comm_secs: 0.0,
                    lambda: 1.0,
                    cost: StageCost::default(),
                },
            ],
        };
        let w = proj.whatif_overlap(&model, "(AS)AT", "align");
        assert!((w.baseline_secs - 11.0).abs() < 1e-12);
        assert!((w.hidden_secs - 4.0).abs() < 1e-12); // min(6, 4)
        assert!((w.overlapped_secs - 7.0).abs() < 1e-12);
        assert!((w.saved_pct() - 100.0 * 4.0 / 11.0).abs() < 1e-9);
    }
}
