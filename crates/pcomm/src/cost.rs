//! Calibrated α-β cost model and machine profiles.
//!
//! The reproduction runs ranks as threads on one machine, so per-stage
//! wall clock is contaminated by scheduling. Each pipeline stage instead
//! records, per rank, deterministic compute work ([`crate::work`]) and the
//! communication it issued; this module turns those records into modeled
//! seconds for the grid that actually ran.
//!
//! Two layers:
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
//!    point-to-point traffic. [`KIND_RULES`] maps each recorded `pcomm.*`
//!    collective span to its shape and communicator.

use std::collections::BTreeMap;

use obs::JsonValue;

use crate::stats::CommStats;
use crate::work::{self, CostClass, COST_CLASSES};

/// Schema version of the machine-profile JSON (bump on layout changes).
/// v3 dropped v2's per-structure memory laws along with the scaling
/// projector that read them.
pub const PROFILE_SCHEMA_VERSION: u64 = 3;

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
        let cost_ns = self
            .cost_ns
            .iter()
            .map(|(k, &v)| (k.as_str(), JsonValue::Num(v)));
        let calibrated = self
            .calibrated
            .iter()
            .map(|k| JsonValue::Str(k.clone()))
            .collect();
        JsonValue::obj([
            ("schema", JsonValue::Str("machine_profile".into())),
            ("version", JsonValue::Num(self.version as f64)),
            ("host", JsonValue::Str(self.host.clone())),
            ("alpha_secs", JsonValue::Num(self.alpha)),
            ("beta_secs_per_byte", JsonValue::Num(self.beta)),
            ("compute_scale", JsonValue::Num(self.compute_scale)),
            ("cost_ns", JsonValue::obj(cost_ns)),
            ("calibrated", JsonValue::Arr(calibrated)),
        ])
    }

    /// Parse and validate a profile document: unknown cost keys, a
    /// missing field, a wrong version, or a non-positive parameter are
    /// errors.
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
        Ok(MachineProfile {
            version,
            host,
            alpha,
            beta,
            compute_scale,
            cost_ns,
            calibrated,
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
        CostModel::from_profile(&MachineProfile::defaults())
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
    /// fields. `colls` is taken from whichever side has one (they are
    /// per-stage aggregates and are not max-combined).
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

/// Cost shape and communicator of every `pcomm.*` collective span, as the
/// pipeline uses each primitive: `bcast`/`ibcast` are the Sparse-SUMMA
/// panel broadcasts over a grid row or column (the nonblocking one has
/// the same traffic pattern — only its completion is deferred);
/// `allgather` exchanges per-row/column counts along the grid; the rest
/// run over the world; `waitall` is the overlapped sequence-exchange
/// fence, priced as raw point-to-point traffic.
pub const KIND_RULES: [(&str, CollShape, Scope); 10] = [
    ("pcomm.bcast", CollShape::Bcast, Scope::GridRow),
    ("pcomm.ibcast", CollShape::Bcast, Scope::GridRow),
    ("pcomm.reduce", CollShape::Reduce, Scope::World),
    ("pcomm.allreduce", CollShape::Allreduce, Scope::World),
    ("pcomm.gather", CollShape::Gather, Scope::World),
    ("pcomm.allgather", CollShape::Allgather, Scope::GridRow),
    ("pcomm.alltoallv", CollShape::Alltoallv, Scope::World),
    ("pcomm.barrier", CollShape::Barrier, Scope::World),
    ("pcomm.exscan", CollShape::Exscan, Scope::World),
    ("pcomm.waitall", CollShape::PointToPoint, Scope::World),
];

/// Span names of every collective kind the model prices, in rule order —
/// pass to `obs::project::extract_stages`.
pub fn kind_names() -> Vec<&'static str> {
    KIND_RULES.iter().map(|&(n, _, _)| n).collect()
}

/// Integer square root for perfect-square grid sizes (1 for p = 0/1).
pub fn grid_side(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    q.max(1)
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
        let bad = text.replace("\"version\":3", "\"version\":99");
        assert_ne!(bad, text, "version literal must appear in the JSON");
        assert!(MachineProfile::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
        // A v2 document is refused in one line naming both versions.
        let v2 = text.replace("\"version\":3", "\"version\":2");
        let err = MachineProfile::from_json(&JsonValue::parse(&v2).unwrap()).unwrap_err();
        assert!(
            err.contains("version 2") && err.contains("want 3") && !err.contains('\n'),
            "{err}"
        );
        // The committed profile parses and re-serializes to its own
        // document: same keys, every number the same f64. (Compared as
        // parsed JSON, not bytes: a hand-edited constant such as `0.2`
        // is printed by the writer as `2.00000000000000011e-1`.)
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../machine_profile.json");
        let committed = std::fs::read_to_string(&path).unwrap();
        let loaded = MachineProfile::load(&path).unwrap();
        assert_eq!(loaded.to_json(), JsonValue::parse(&committed).unwrap());
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
}
