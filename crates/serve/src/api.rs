//! The wire schema: JSON job requests in, `dante-bench` figure records
//! out, progress events as JSON lines, the iso-accuracy query/response
//! encoding, and the shard-leg request and response codecs.
//!
//! Every JSON body, and every object nested in one, decodes through one
//! field reader, so the same rules hold on every endpoint:
//!
//! - **Strict keys.** A key the decoder does not read is a 400 naming it
//!   (`unknown field 'trails'`), at the top level and inside every nested
//!   object, so a typo never silently falls back to a default.
//! - **Exact integers.** An integer field takes a non-negative integral
//!   JSON number below 2^53, the range an `f64` carries exactly; a larger
//!   one would be rounded, and the job would run (and be cached under) a
//!   value the client never sent.
//! - **Field-naming errors.** Unknown tokens and mistyped values name the
//!   field, with its dotted path inside nested objects (`'supply.level'`),
//!   and the spec's own `validate` names the bound it enforces, so a 400
//!   always tells the client what to fix.
//!
//! The iso-accuracy query string is as strict: unknown query keys are
//! rejected.
//!
//! These decoders are the service's only spec codec; nothing encodes a
//! spec. A shard leg forwards the spec JSON its job was decoded from,
//! under the job's cache key, and the peer decodes it with the decoder of
//! the job's own endpoint and refuses a key it would not compute itself
//! (see [`crate::shard`]).

use crate::cache::digest;
use crate::jobs::Job;
use dante::accuracy::EccMode;
use dante::fleet::{DieOutcome, FleetResult, FleetSpec};
use dante::iso::{IsoAccuracyResult, IsoAccuracySpec, IsoConfigPoint};
use dante::retrain::{HardenedNetwork, ResamplePolicy, RetrainEvent, RetrainSpec};
use dante::schedule::NamedBoostConfig;
use dante::sweep::{GeometrySpec, NetworkSpec, SupplySpec, SweepPoint, SweepSpec};
use dante_bench::json::{object, Value};
use dante_bench::record::{FigureRecord, Series};
use dante_circuit::macro_model::MacroGeometry;
use dante_circuit::units::Volt;
use dante_sim::TrialObserver;
use dante_sram::model::{CellFaultRate, FaultModel};
use std::collections::BTreeMap;
use std::time::Duration;

/// Decodes a `POST /v1/sweep` body into a spec.
///
/// Accepted shape (everything except `voltages_mv`/`grid` optional;
/// defaults are [`SweepSpec::toy_default`]'s):
///
/// ```json
/// {
///   "seed": 17, "trials": 10,
///   "voltages_mv": [360, 400, 440],
///   "grid": {"start_mv": 360, "stop_mv": 520, "step_mv": 20},
///   "ecc": "none" | "secded",
///   "network": "toy" | "mnist_fc" | "alexnet_conv"
///           | {"kind": "mnist_fc", "train_n": 1200, "test_n": 100, "epochs": 4}
///           | {"kind": "alexnet_conv", "layers": 5, "train_n": 1200, "test_n": 100, "epochs": 4},
///   "supply": "single" | "boosted"
///           | {"kind": "boosted", "level": 4}
///           | {"kind": "boosted_scheduled", "level": 4, "critical_layers": 1}
///           | {"kind": "boosted_plan", "config": "vddv1" | .. | "vddv4" | "diff1" | "diff2"}
///           | {"kind": "dual", "v_h_mv": 600},
///   "fault_model": "gaussian" | "correlated_burst" | "chip_variation"
///           | {"kind": "correlated_burst", "row_weak_ppm": 2000, ...},
///   "geometry": "calibrated"
///           | {"rows": 256, "cols": 128, "mux": 4, "banks": 2}
/// }
/// ```
///
/// # Errors
///
/// Returns a human-readable reason (parse error with byte offset, or the
/// first field that failed decoding/validation).
pub fn decode_spec(body: &[u8]) -> Result<SweepSpec, String> {
    decode_spec_value(&parse_body(body)?)
}

/// Decodes an already-parsed sweep-spec object (the `spec` sub-object of a
/// shard request, or a whole `POST /v1/sweep` body).
///
/// # Errors
///
/// Same contract as [`decode_spec`].
pub fn decode_spec_value(v: &Value) -> Result<SweepSpec, String> {
    let mut f = Fields::new(v, "")?;
    let d = SweepSpec::toy_default();
    let spec = SweepSpec {
        voltages_mv: f.voltages()?.ok_or("missing 'voltages_mv' (or 'grid')")?,
        seed: f.int("seed")?.unwrap_or(d.seed),
        trials: f.int("trials")?.unwrap_or(d.trials),
        ecc: f.token("ecc", &ECC)?.unwrap_or(d.ecc),
        network: f.nested("network", decode_network)?.unwrap_or(d.network),
        supply: f.nested("supply", decode_supply)?.unwrap_or(d.supply),
        fault_model: f
            .nested("fault_model", decode_fault_model)?
            .unwrap_or(d.fault_model),
        geometry: f.nested("geometry", decode_geometry)?.unwrap_or(d.geometry),
    };
    f.finish()?;
    spec.validate()?;
    Ok(spec)
}

/// Decodes a `POST /v1/fleet` body into a [`FleetSpec`].
///
/// Accepted shape (every field optional; defaults are
/// [`FleetSpec::toy_default`]'s — a thousand 1 Mbit dies of the default
/// Gaussian process):
///
/// ```json
/// {
///   "seed": 17, "dies": 1000, "array_bits": 1048576,
///   "voltages_mv": [520, 560, 600],
///   "grid": {"start_mv": 500, "stop_mv": 640, "step_mv": 10},
///   "fault_model": "chip_variation"
/// }
/// ```
///
/// A fleet has no `geometry`: its dies are `array_bits` cells whatever
/// macro holds them, so the field is rejected like any unknown key.
///
/// # Errors
///
/// Returns a human-readable reason naming the first offending field or the
/// first bound the assembled spec violates.
pub fn decode_fleet_spec(body: &[u8]) -> Result<FleetSpec, String> {
    decode_fleet_value(&parse_body(body)?)
}

/// Decodes an already-parsed fleet-spec object (the `spec` sub-object of a
/// shard request, or a whole `POST /v1/fleet` body).
///
/// # Errors
///
/// Same contract as [`decode_fleet_spec`].
pub fn decode_fleet_value(v: &Value) -> Result<FleetSpec, String> {
    let mut f = Fields::new(v, "")?;
    let d = FleetSpec::toy_default();
    let spec = FleetSpec {
        seed: f.int("seed")?.unwrap_or(d.seed),
        dies: f.int("dies")?.unwrap_or(d.dies),
        array_bits: f.int("array_bits")?.unwrap_or(d.array_bits),
        voltages_mv: f.voltages()?.unwrap_or(d.voltages_mv),
        fault_model: f
            .nested("fault_model", decode_fault_model)?
            .unwrap_or(d.fault_model),
    };
    f.finish()?;
    spec.validate()?;
    Ok(spec)
}

/// Decodes a `POST /v1/retrain` body into a [`RetrainSpec`].
///
/// Accepted shape (every field optional; defaults are
/// [`RetrainSpec::toy_default`]'s — the toy hardening run at 380 mV):
///
/// ```json
/// {
///   "seed": 17, "target_mv": 380, "epochs": 4,
///   "resample": "every_epoch" | "hold",
///   "fault_model": "gaussian" | {"kind": "correlated_burst", ...},
///   "network": "toy" | "mnist_fc" | {"kind": "mnist_fc", ...},
///   "voltages_mv": [360, 400, 440],
///   "grid": {"start_mv": 340, "stop_mv": 600, "step_mv": 20},
///   "trials": 4, "floor": 0.97, "level": 4,
///   "ecc": "none" | "secded"
/// }
/// ```
///
/// # Errors
///
/// Returns a human-readable reason naming the first offending field or the
/// first bound the assembled spec violates.
pub fn decode_retrain_spec(body: &[u8]) -> Result<RetrainSpec, String> {
    let v = parse_body(body)?;
    let mut f = Fields::new(&v, "")?;
    let d = RetrainSpec::toy_default();
    let spec = RetrainSpec {
        seed: f.int("seed")?.unwrap_or(d.seed),
        network: f.nested("network", decode_network)?.unwrap_or(d.network),
        target_mv: f.int("target_mv")?.unwrap_or(d.target_mv),
        fault_model: f
            .nested("fault_model", decode_fault_model)?
            .unwrap_or(d.fault_model),
        epochs: f.int("epochs")?.unwrap_or(d.epochs),
        resample: f.token("resample", &RESAMPLE)?.unwrap_or(d.resample),
        voltages_mv: f.voltages()?.unwrap_or(d.voltages_mv),
        trials: f.int("trials")?.unwrap_or(d.trials),
        floor: f.float("floor")?.unwrap_or(d.floor),
        level: f.int("level")?.unwrap_or(d.level),
        ecc: f.token("ecc", &ECC)?.unwrap_or(d.ecc),
    };
    f.finish()?;
    spec.validate()?;
    Ok(spec)
}

/// Decodes the `GET /v1/iso-accuracy` query string into a solve spec.
///
/// Recognized keys (all optional): `network` (`toy` | `mnist_fc` |
/// `alexnet_conv`), `floor` (fraction of clean accuracy, default `0.97`),
/// `trials`, `seed`, `level` (boost level, default `4`), and the grid
/// `start_mv`/`stop_mv`/`step_mv` (default `340..=600` step `20`). Unknown
/// keys are rejected so a typo cannot silently fall back to a default.
///
/// # Errors
///
/// Returns a message naming the offending query key.
pub fn decode_iso_query(query: &str) -> Result<IsoAccuracySpec, String> {
    let mut spec = IsoAccuracySpec::toy_default();
    let (mut start, mut stop, mut step) = (340, 600, 20);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "network" => spec.network = default_network(value)?,
            "floor" => spec.floor = query_value(key, value)?,
            "trials" => spec.trials = query_value(key, value)?,
            "seed" => spec.seed = query_value(key, value)?,
            "level" => spec.level = query_value(key, value)?,
            "start_mv" => start = query_value(key, value)?,
            "stop_mv" => stop = query_value(key, value)?,
            "step_mv" => step = query_value(key, value)?,
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    spec.voltages_mv = grid_mv(start, stop, step)?;
    spec.validate()?;
    Ok(spec)
}

/// Parses one iso query value as the key's type; bounds (including a
/// non-finite `floor`) are left to the spec's `validate`.
fn query_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("'{key}' has an invalid value {value:?}"))
}

/// The one body-parse step: UTF-8, then a single JSON document.
pub(crate) fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    Value::parse(text).map_err(|e| e.to_string())
}

/// 2^53: every integer below it, and not every one above, is an `f64`.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// The one integer rule for JSON numbers: integral, non-negative, below
/// 2^53 (so the parsed `f64` is exactly the integer the client wrote), and
/// within `T`.
fn exact_int<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (0.0..EXACT_INT_BOUND).contains(n))
        .and_then(|n| T::try_from(n as u64).ok())
}

/// ECC tokens, shared by the sweep and retrain decoders.
const ECC: [(&str, EccMode); 2] = [("none", EccMode::None), ("secded", EccMode::SecDed)];

/// Retraining die-resampling tokens.
const RESAMPLE: [(&str, ResamplePolicy); 2] = [
    ("every_epoch", ResamplePolicy::EveryEpoch),
    ("hold", ResamplePolicy::Hold),
];

/// The one reader every JSON request object decodes through. Each read
/// marks its key, found or not, and [`Self::finish`] rejects whatever key
/// no read asked for.
struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    /// This object's dotted path (`""` for a body, `"supply."` nested), so
    /// messages name fields as the client wrote them.
    path: &'static str,
    read: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value, path: &'static str) -> Result<Self, String> {
        match v {
            Value::Object(map) => Ok(Self {
                map,
                path,
                read: Vec::new(),
            }),
            _ if path.is_empty() => Err("the body must be a JSON object".to_owned()),
            _ => Err(format!(
                "'{}' must be an object",
                path.trim_end_matches('.')
            )),
        }
    }

    /// The field's full name, e.g. `supply.level`.
    fn name(&self, key: &str) -> String {
        format!("{}{key}", self.path)
    }

    /// The raw value of `key`, marking it read.
    fn get(&mut self, key: &'static str) -> Option<&'a Value> {
        self.read.push(key);
        self.map.get(key)
    }

    /// An optional nested field, read by its own decoder.
    fn nested<T>(
        &mut self,
        key: &'static str,
        decode: fn(&Value) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(key).map(decode).transpose()
    }

    /// An optional integer field, under the one integer rule.
    fn int<T: TryFrom<u64>>(&mut self, key: &'static str) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let bits = (8 * std::mem::size_of::<T>()).min(53);
        exact_int(v).map(Some).ok_or_else(|| {
            format!(
                "'{}' must be a non-negative integer below 2^{bits}",
                self.name(key)
            )
        })
    }

    /// An integer field with no default.
    fn required<T: TryFrom<u64>>(&mut self, key: &'static str) -> Result<T, String> {
        self.int(key)?
            .ok_or_else(|| format!("'{}' is required", self.name(key)))
    }

    /// An optional finite number.
    fn float(&mut self, key: &'static str) -> Result<Option<f64>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        v.as_f64()
            .filter(|n| n.is_finite())
            .map(Some)
            .ok_or_else(|| format!("'{}' must be a finite number", self.name(key)))
    }

    /// An optional token from `table`.
    fn token<T: Copy>(
        &mut self,
        key: &'static str,
        table: &[(&str, T)],
    ) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        if let Some(&(_, value)) = table.iter().find(|&&(token, _)| v.as_str() == Some(token)) {
            return Ok(Some(value));
        }
        let tokens: Vec<String> = table
            .iter()
            .map(|(token, _)| format!("{token:?}"))
            .collect();
        Err(format!(
            "'{}' must be {}, got {}",
            self.name(key),
            tokens.join(" or "),
            v.to_string_compact()
        ))
    }

    /// The one `voltages_mv`-or-`grid` reader: an explicit millivolt list,
    /// or an inclusive `{"start_mv", "stop_mv", "step_mv"}` grid — never
    /// both. `None` when the object gives neither.
    fn voltages(&mut self) -> Result<Option<Vec<u32>>, String> {
        match (self.get("voltages_mv"), self.get("grid")) {
            (Some(_), Some(_)) => Err("give either 'voltages_mv' or 'grid', not both".to_owned()),
            (Some(list), None) => list
                .as_array()
                .ok_or("'voltages_mv' must be an array")?
                .iter()
                .map(|mv| {
                    exact_int(mv).ok_or_else(|| {
                        "'voltages_mv' entries must be integers (millivolts)".to_owned()
                    })
                })
                .collect::<Result<_, _>>()
                .map(Some),
            (None, Some(grid)) => {
                let mut g = Fields::new(grid, "grid.")?;
                let (start, stop, step) = (
                    g.required("start_mv")?,
                    g.required("stop_mv")?,
                    g.required("step_mv")?,
                );
                g.finish()?;
                grid_mv(start, stop, step).map(Some)
            }
            (None, None) => Ok(None),
        }
    }

    /// Rejects the first key no read asked for.
    fn finish(self) -> Result<(), String> {
        match self
            .map
            .keys()
            .find(|key| !self.read.contains(&key.as_str()))
        {
            None => Ok(()),
            Some(key) => Err(format!("unknown field '{}'", self.name(key))),
        }
    }
}

/// Expands an inclusive millivolt grid: the one expansion that bodies and
/// the iso query share. `u16` bounds keep even a 1 mV-step grid small
/// before the spec's own point-count check sees it.
fn grid_mv(start: u16, stop: u16, step: u16) -> Result<Vec<u32>, String> {
    if step == 0 || stop < start {
        return Err("'grid' needs step_mv >= 1 and stop_mv >= start_mv".to_owned());
    }
    Ok((start..=stop)
        .step_by(usize::from(step))
        .map(u32::from)
        .collect())
}

/// Opens a field spelled either as a bare token or as an object whose
/// `kind` names the variant: returns the token or kind, plus the object's
/// reader for the variant's own keys (`None` for a bare token).
fn tagged<'a>(v: &'a Value, path: &'static str) -> Result<(&'a str, Option<Fields<'a>>), String> {
    if let Value::String(token) = v {
        return Ok((token, None));
    }
    let mut f = Fields::new(v, path)?;
    let kind = f
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("'{path}kind' must be a string"))?;
    Ok((kind, Some(f)))
}

/// Decodes the `network` field of sweep and retrain bodies: a bare token
/// selects the default size, an object overrides sizes key by key.
fn decode_network(v: &Value) -> Result<NetworkSpec, String> {
    let (kind, f) = tagged(v, "network.")?;
    let Some(mut f) = f else {
        return default_network(kind);
    };
    let network = match default_network(kind) {
        Ok(NetworkSpec::MnistFc {
            train_n,
            test_n,
            epochs,
        }) => NetworkSpec::MnistFc {
            train_n: f.int("train_n")?.unwrap_or(train_n),
            test_n: f.int("test_n")?.unwrap_or(test_n),
            epochs: f.int("epochs")?.unwrap_or(epochs),
        },
        Ok(NetworkSpec::AlexNetConv {
            layers,
            train_n,
            test_n,
            epochs,
        }) => NetworkSpec::AlexNetConv {
            layers: f.int("layers")?.unwrap_or(layers),
            train_n: f.int("train_n")?.unwrap_or(train_n),
            test_n: f.int("test_n")?.unwrap_or(test_n),
            epochs: f.int("epochs")?.unwrap_or(epochs),
        },
        _ => return Err(format!("unknown network kind {kind:?}")),
    };
    f.finish()?;
    Ok(network)
}

/// The network a bare string token selects; sized defaults match the repo's
/// committed artifact cache entries.
fn default_network(token: &str) -> Result<NetworkSpec, String> {
    match token {
        "toy" => Ok(NetworkSpec::Toy),
        "mnist_fc" => Ok(NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 100,
            epochs: 4,
        }),
        "alexnet_conv" => Ok(NetworkSpec::AlexNetConv {
            layers: 5,
            train_n: 1200,
            test_n: 100,
            epochs: 4,
        }),
        other => Err(format!("unknown network {other:?}")),
    }
}

/// Decodes the `supply` field of sweep bodies.
fn decode_supply(v: &Value) -> Result<SupplySpec, String> {
    let (kind, f) = tagged(v, "supply.")?;
    let mut f = match (kind, f) {
        (_, Some(f)) => f,
        ("single", None) => return Ok(SupplySpec::Single),
        // Bare "boosted" means the strongest boost (Table 1's Vddv4).
        ("boosted", None) => return Ok(SupplySpec::Boosted { level: 4 }),
        ("dual", None) => {
            return Err("'supply': \"dual\" needs a memory rail; use \
                 {\"kind\": \"dual\", \"v_h_mv\": ...}"
                .to_owned())
        }
        (other, None) => return Err(format!("unknown supply {other:?}")),
    };
    let supply = match kind {
        "single" => SupplySpec::Single,
        "boosted" => SupplySpec::Boosted {
            level: f.int("level")?.unwrap_or(4),
        },
        "boosted_scheduled" => SupplySpec::BoostedScheduled {
            level: f.int("level")?.unwrap_or(4),
            critical_layers: f.int("critical_layers")?.unwrap_or(1),
        },
        "boosted_plan" => SupplySpec::BoostedPlan {
            config: f
                .token("config", &NamedBoostConfig::all().map(|c| (c.token(), c)))?
                .ok_or("'supply.config' is required")?,
        },
        "dual" => SupplySpec::Dual {
            v_h_mv: f.required("v_h_mv")?,
        },
        other => return Err(format!("unknown supply kind {other:?}")),
    };
    f.finish()?;
    Ok(supply)
}

/// Decodes the `fault_model` field shared by sweep, fleet and retrain
/// bodies: a bare token selects the variant's calibrated 14 nm defaults,
/// an object overrides them key by key (the base `mu_mv`/`sigma_mv`/
/// `flip_ppm` plus the variant's own knobs). Range checks happen in the
/// spec's own `validate`, so a 400 names the bound.
fn decode_fault_model(v: &Value) -> Result<FaultModel, String> {
    let (kind, f) = tagged(v, "fault_model.")?;
    let named = match kind {
        "gaussian" => FaultModel::gaussian_default(),
        "correlated_burst" => FaultModel::burst_default(),
        "chip_variation" => FaultModel::chip_variation_default(),
        other => return Err(format!("unknown fault_model kind {other:?}")),
    };
    let Some(mut f) = f else {
        return Ok(named);
    };
    let (mu, sigma, flip) = (f.int("mu_mv")?, f.int("sigma_mv")?, f.int("flip_ppm")?);
    let model = match named {
        FaultModel::Gaussian {
            mu_mv,
            sigma_mv,
            flip_ppm,
        } => FaultModel::Gaussian {
            mu_mv: mu.unwrap_or(mu_mv),
            sigma_mv: sigma.unwrap_or(sigma_mv),
            flip_ppm: flip.unwrap_or(flip_ppm),
        },
        FaultModel::CorrelatedBurst {
            mu_mv,
            sigma_mv,
            flip_ppm,
            row_weak_ppm,
            col_weak_ppm,
            shift_mv,
        } => FaultModel::CorrelatedBurst {
            mu_mv: mu.unwrap_or(mu_mv),
            sigma_mv: sigma.unwrap_or(sigma_mv),
            flip_ppm: flip.unwrap_or(flip_ppm),
            row_weak_ppm: f.int("row_weak_ppm")?.unwrap_or(row_weak_ppm),
            col_weak_ppm: f.int("col_weak_ppm")?.unwrap_or(col_weak_ppm),
            shift_mv: f.int("shift_mv")?.unwrap_or(shift_mv),
        },
        FaultModel::ChipVariation {
            mu_mv,
            sigma_mv,
            flip_ppm,
            mu_spread_mv,
            sigma_spread_pct,
        } => FaultModel::ChipVariation {
            mu_mv: mu.unwrap_or(mu_mv),
            sigma_mv: sigma.unwrap_or(sigma_mv),
            flip_ppm: flip.unwrap_or(flip_ppm),
            mu_spread_mv: f.int("mu_spread_mv")?.unwrap_or(mu_spread_mv),
            sigma_spread_pct: f.int("sigma_spread_pct")?.unwrap_or(sigma_spread_pct),
        },
    };
    f.finish()?;
    Ok(model)
}

/// Decodes a sweep body's `geometry` field, which sets the SRAM access
/// energy: `"calibrated"` selects the scalar calibration (the spec's
/// historical cache key), an object with all four dimensions the
/// structural macro model. Range checks happen in the spec's own
/// `validate`.
fn decode_geometry(v: &Value) -> Result<GeometrySpec, String> {
    if let Value::String(token) = v {
        return match token.as_str() {
            "calibrated" => Ok(GeometrySpec::Calibrated),
            other => Err(format!("unknown geometry {other:?}")),
        };
    }
    let mut f = Fields::new(v, "geometry.")?;
    let geometry = MacroGeometry {
        rows: f.required("rows")?,
        cols: f.required("cols")?,
        mux: f.required("mux")?,
        banks: f.required("banks")?,
    };
    f.finish()?;
    Ok(GeometrySpec::Structural(geometry))
}

/// A JSON string.
fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// A JSON number from a count or an index.
fn int(n: usize) -> Value {
    Value::Number(n as f64)
}

/// Renders an `f64` as its exact IEEE-754 bit pattern (16 hex chars).
/// Shard responses carry floats this way so merged results are
/// bit-identical to a single-process run — no decimal round-trip.
#[must_use]
pub fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses an [`f64_hex`]-rendered bit pattern back to the exact `f64`.
///
/// # Errors
///
/// Rejects strings that are not exactly 16 hex characters.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("float bits must be 16 hex chars, got {s:?}"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad float bits {s:?}"))
}

/// Wire keys of a sweep leg's trial window.
pub(crate) const TRIAL_WINDOW: [&str; 2] = ["trial_offset", "trial_count"];

/// Wire keys of a fleet leg's die window.
pub(crate) const DIE_WINDOW: [&str; 2] = ["die_offset", "die_count"];

/// The one shard-leg request encoder: the job's cache `key`, the spec JSON
/// the job was decoded from, and the window `[offset, offset + count)` of
/// its seed axis (trials or dies) under that axis's `[offset, count]` keys.
/// The spec is re-rendered compact, so a client's padding never pushes a
/// leg past a peer's body cap.
pub(crate) fn encode_window(
    key: &str,
    spec: &Value,
    [offset_key, count_key]: [&str; 2],
    offset: usize,
    count: usize,
) -> String {
    object([
        ("key", text(key)),
        ("spec", spec.clone()),
        (offset_key, int(offset)),
        (count_key, int(count)),
    ])
    .to_string_compact()
}

/// Decodes an [`encode_window`] body: `decode`, the decoder of the job's
/// own endpoint, reads the spec, whose key on this build (the digest of
/// `canonical(spec)`) must equal the leg's `key`; and the window must lie
/// inside `0..axis(spec)`.
fn decode_window<S>(
    body: &[u8],
    [offset_key, count_key]: [&'static str; 2],
    decode: fn(&Value) -> Result<S, String>,
    canonical: fn(&S) -> String,
    axis: fn(&S) -> usize,
) -> Result<(S, usize, usize), String> {
    let v = parse_body(body)?;
    let mut f = Fields::new(&v, "")?;
    let key = f
        .get("key")
        .and_then(Value::as_str)
        .ok_or("'key' must be a string")?;
    let spec = decode(f.get("spec").ok_or("missing 'spec'")?)?;
    let (offset, count): (usize, usize) = (f.required(offset_key)?, f.required(count_key)?);
    f.finish()?;
    let ours = digest(&canonical(&spec));
    if key != ours {
        return Err(format!(
            "the leg's key {key} is not this peer's key {ours} for its spec"
        ));
    }
    let len = axis(&spec);
    if count == 0 || offset.saturating_add(count) > len {
        return Err(format!("window {offset}+{count} outside 0..{len}"));
    }
    Ok((spec, offset, count))
}

/// Decodes a `POST /v1/shard/sweep` body into `(spec, offset, count)`.
///
/// # Errors
///
/// Rejects malformed bodies, a `key` that is not this peer's key for the
/// spec, and windows outside `0..spec.trials`.
pub fn decode_shard_sweep_request(body: &[u8]) -> Result<(SweepSpec, usize, usize), String> {
    decode_window(
        body,
        TRIAL_WINDOW,
        decode_spec_value,
        SweepSpec::canonical_string,
        |spec| spec.trials,
    )
}

/// Decodes a `POST /v1/shard/fleet` body into `(spec, offset, count)`.
///
/// # Errors
///
/// Rejects malformed bodies, a `key` that is not this peer's key for the
/// spec, and windows outside `0..spec.dies`.
pub fn decode_shard_fleet_request(body: &[u8]) -> Result<(FleetSpec, usize, usize), String> {
    decode_window(
        body,
        DIE_WINDOW,
        decode_fleet_value,
        FleetSpec::canonical_string,
        |spec| spec.dies,
    )
}

/// Encodes a shard sweep response: for each sweep point, the shard's raw
/// per-trial accuracies as exact bit patterns, in trial order.
#[must_use]
pub fn encode_shard_sweep_response(per_point: &[Vec<f64>]) -> String {
    let points = per_point
        .iter()
        .map(|trials| Value::Array(trials.iter().map(|&x| Value::String(f64_hex(x))).collect()))
        .collect();
    object([("points", Value::Array(points))]).to_string_compact()
}

/// Decodes a shard sweep response back to per-point raw trial accuracies.
///
/// # Errors
///
/// Rejects malformed bodies (including error payloads from the peer).
pub fn decode_shard_sweep_response(body: &[u8]) -> Result<Vec<Vec<f64>>, String> {
    let v = parse_body(body)?;
    v.get("points")
        .and_then(Value::as_array)
        .ok_or("missing 'points' array")?
        .iter()
        .map(|point| {
            point
                .as_array()
                .ok_or("'points' entries must be arrays")?
                .iter()
                .map(|bits| f64_from_hex(bits.as_str().ok_or("float bits must be strings")?))
                .collect()
        })
        .collect()
}

/// Encodes a shard fleet response: the shard's raw per-die outcomes in die
/// order, V_min as an exact bit pattern.
#[must_use]
pub fn encode_shard_fleet_response(dies: &[DieOutcome]) -> String {
    let dies = dies
        .iter()
        .map(|die| {
            object([
                ("v_min_bits", Value::String(f64_hex(die.v_min))),
                ("censored", Value::Bool(die.censored)),
                ("fault_cells", Value::Number(die.fault_cells as f64)),
            ])
        })
        .collect();
    object([("dies", Value::Array(dies))]).to_string_compact()
}

/// Decodes a shard fleet response back to raw per-die outcomes.
///
/// # Errors
///
/// Rejects malformed bodies (including error payloads from the peer).
pub fn decode_shard_fleet_response(body: &[u8]) -> Result<Vec<DieOutcome>, String> {
    let v = parse_body(body)?;
    v.get("dies")
        .and_then(Value::as_array)
        .ok_or("missing 'dies' array")?
        .iter()
        .map(|die| {
            Ok(DieOutcome {
                v_min: f64_from_hex(
                    die.get("v_min_bits")
                        .and_then(Value::as_str)
                        .ok_or("'v_min_bits' must be a string")?,
                )?,
                censored: die
                    .get("censored")
                    .and_then(Value::as_bool)
                    .ok_or("'censored' must be a bool")?,
                fault_cells: die
                    .get("fault_cells")
                    .and_then(exact_int)
                    .ok_or("'fault_cells' must be a non-negative integer")?,
            })
        })
        .collect()
}

/// Builds the response record from a spec and its per-point results.
///
/// Everything in the record is a pure function of the spec (plus the
/// deterministic results), so the rendered JSON is byte-identical across
/// cold runs, cache hits, and direct library calls. The energy series carry
/// exactly the `dante-energy` breakdown values attached to each point —
/// recomputing them through the library yields the same `f64`s, hence the
/// same rendered bytes.
#[must_use]
pub fn build_record(spec: &SweepSpec, results: &[SweepPoint]) -> FigureRecord {
    // The BER series reflects the spec's own fault model. For the default
    // Gaussian this computes exactly `VminFaultModel::default_14nm()`'s
    // bit_error_rate, so pre-fault-model responses stay byte-identical.
    let model = spec.fault_model;
    let xy = |f: &dyn Fn(&SweepPoint) -> f64| -> Vec<(f64, f64)> {
        results.iter().map(|p| (p.vdd.volts(), f(p))).collect()
    };
    let activity = spec.network.energy_activity();
    FigureRecord::new(
        "sweep",
        "Monte-Carlo accuracy + energy sweep (dante-serve)",
        "Vdd [V]",
        "accuracy / BER / energy",
    )
    .with_series(Series::new("accuracy mean", xy(&|p| p.stats.mean())))
    .with_series(Series::new("accuracy std", xy(&|p| p.stats.std_dev())))
    .with_series(Series::new("accuracy min", xy(&|p| p.stats.min())))
    .with_series(Series::new(
        "bit error rate",
        xy(&|p| model.marginal_ber(p.v_sram)),
    ))
    .with_series(Series::new("sram rail [V]", xy(&|p| p.v_sram.volts())))
    .with_series(Series::new(
        "dynamic sram [J]",
        xy(&|p| p.energy.dynamic.sram.joules()),
    ))
    .with_series(Series::new(
        "dynamic logic [J]",
        xy(&|p| p.energy.dynamic.logic.joules()),
    ))
    .with_series(Series::new(
        "dynamic booster [J]",
        xy(&|p| p.energy.dynamic.booster.joules()),
    ))
    .with_series(Series::new(
        "dynamic total [J]",
        xy(&|p| p.energy.dynamic.total().joules()),
    ))
    .with_series(Series::new(
        "dynamic total /ref0.5V",
        xy(&|p| p.energy.normalized_total()),
    ))
    .with_series(Series::new(
        "leakage per cycle [J]",
        xy(&|p| p.energy.leakage_per_cycle.joules()),
    ))
    .with_note(format!("spec: {}", spec.canonical_string()))
    .with_note(format!(
        "{} trials x {} points; deterministic per spec (counter-based seeds)",
        spec.trials,
        results.len()
    ))
    .with_note(format!(
        "supply: {}; energy workload: {} MACs, {} SRAM accesses per inference",
        spec.supply.canonical_token(),
        activity.total_macs(),
        activity.total_sram_accesses()
    ))
}

/// Runs `spec` synchronously through the library path and renders the
/// response body — the reference the HTTP path must match byte-for-byte.
#[must_use]
pub fn run_spec_json(spec: &SweepSpec) -> String {
    let prep = spec.prepare();
    build_record(spec, &prep.run()).to_json_pretty()
}

/// Builds the `/v1/fleet` response record from a spec and its result.
///
/// Like [`build_record`], everything here is a pure function of the spec and
/// its deterministic result, so cold runs, cache hits, and direct library
/// calls render byte-identical JSON.
#[must_use]
pub fn build_fleet_record(spec: &FleetSpec, result: &FleetResult) -> FigureRecord {
    let yield_points: Vec<(f64, f64)> = result
        .yield_at_voltage
        .iter()
        .map(|&(mv, y)| (Volt::from_millivolts(f64::from(mv)).volts(), y))
        .collect();
    let analytic_points: Vec<(f64, f64)> = result
        .yield_at_voltage
        .iter()
        .map(|&(mv, _)| {
            let v = Volt::from_millivolts(f64::from(mv));
            (v.volts(), spec.analytic_yield(v))
        })
        .collect();
    FigureRecord::new(
        "fleet",
        "Fleet-scale V_min / yield sweep (dante-serve)",
        "Vdd [V] (yield series) / quantile level (V_min series)",
        "yield fraction / V_min [V]",
    )
    .with_series(Series::new("yield", yield_points))
    .with_series(Series::new("analytic single-die yield", analytic_points))
    .with_series(Series::new("vmin quantile [V]", result.quantiles.clone()))
    .with_note(format!("spec: {}", spec.canonical_string()))
    .with_note(format!(
        "{} dies x {} bits; {} censored at the {} mV floor; {} faulty cells",
        result.dies,
        spec.array_bits,
        result.censored_dies,
        spec.voltages_mv[0],
        result.total_fault_cells
    ))
    .with_note(
        "deterministic per spec (counter-based die seeds); censored dies \
         report V_min at the grid floor"
            .to_owned(),
    )
}

/// Runs a fleet spec synchronously through the library path and renders the
/// response body — the reference the HTTP path must match byte-for-byte.
#[must_use]
pub fn run_fleet_json(spec: &FleetSpec) -> String {
    build_fleet_record(spec, &spec.solve()).to_json_pretty()
}

/// A job family's progress vocabulary: the `[start, item, faults, done]`
/// event names and the `[count, item, faults]` field names.
type Vocabulary = ([&'static str; 4], [&'static str; 3]);

/// A job's trial observer: renders the four hooks the progress stream
/// carries as compact JSON lines in its family's vocabulary and appends
/// them to the job's event log. Stage timings stay in the process
/// (`on_stage` keeps its no-op default): two extra lines per trial with
/// little client value.
///
/// A sweep gets one observer per grid point, which tags every line with
/// the point's index and voltage: `point_start`, one `trial`/`fault_bits`
/// pair per trial, `point_done`, then the point's energy
/// [`annotation`](Self::annotate_energy). A fleet gets one observer: one
/// `die`/`die_faults` pair per simulated die, bracketed by
/// `fleet_start`/`fleet_done`. Only the per-trial and per-die lines are
/// subject to the event cap; the bracket lines and annotations bypass it,
/// so a client sees every point and fleet start and finish even when a
/// long run overflows the log.
pub(crate) struct JobProgress<'a> {
    job: &'a Job,
    vocabulary: Vocabulary,
    /// The sweep point's index and millivolts; `None` for a fleet.
    point: Option<(usize, u32)>,
}

impl<'a> JobProgress<'a> {
    /// The observer of sweep grid point `point` at `mv` millivolts.
    pub(crate) fn sweep_point(job: &'a Job, point: usize, mv: u32) -> Self {
        Self {
            job,
            vocabulary: (
                ["point_start", "trial", "fault_bits", "point_done"],
                ["trials", "trial", "bits"],
            ),
            point: Some((point, mv)),
        }
    }

    /// The observer of a fleet's dies.
    pub(crate) fn fleet(job: &'a Job) -> Self {
        Self {
            job,
            vocabulary: (
                ["fleet_start", "die", "die_faults", "fleet_done"],
                ["dies", "die", "cells"],
            ),
            point: None,
        }
    }

    /// Appends the sweep point's `annotation` line carrying its
    /// per-inference dynamic energy, past the event cap.
    pub(crate) fn annotate_energy(&self, joules: f64) {
        self.push(
            [
                ("event", text("annotation")),
                ("key", text("dynamic_energy_j")),
                ("value", Value::Number(joules)),
            ],
            true,
        );
    }

    fn push<const N: usize>(&self, pairs: [(&str, Value); N], force: bool) {
        let point = self
            .point
            .into_iter()
            .flat_map(|(point, mv)| [("point", int(point)), ("mv", Value::Number(mv.into()))]);
        self.job.push_event(
            object(pairs.into_iter().chain(point)).to_string_compact(),
            force,
        );
    }
}

/// A hook's wall time in whole microseconds, saturating at `u64::MAX`.
fn micros(elapsed: Duration) -> Value {
    Value::Number(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX) as f64)
}

impl TrialObserver for JobProgress<'_> {
    fn on_batch_start(&self, total: usize) {
        let ([start, ..], [count, ..]) = self.vocabulary;
        self.push([("event", text(start)), (count, int(total))], true);
    }

    fn on_trial_complete(&self, index: usize, elapsed: Duration) {
        let ([_, item, ..], [_, item_key, _]) = self.vocabulary;
        self.push(
            [
                ("event", text(item)),
                (item_key, int(index)),
                ("micros", micros(elapsed)),
            ],
            false,
        );
    }

    fn on_fault_bits(&self, index: usize, bits: u64) {
        let ([_, _, faults, _], [_, item_key, faults_key]) = self.vocabulary;
        self.push(
            [
                ("event", text(faults)),
                (item_key, int(index)),
                (faults_key, Value::Number(bits as f64)),
            ],
            false,
        );
    }

    fn on_batch_complete(&self, elapsed: Duration) {
        let ([.., done], _) = self.vocabulary;
        self.push([("event", text(done)), ("micros", micros(elapsed))], true);
    }
}

/// The shared body of an iso-accuracy result rendering: everything except
/// the `spec` key. Both `/v1/iso-accuracy` responses and the baseline /
/// hardened sub-objects of `/v1/retrain` responses are built from exactly
/// these entries, so the two endpoints render a solve identically.
fn iso_result_entries(result: &IsoAccuracyResult) -> [(&'static str, Value); 7] {
    let config = |point: &Option<IsoConfigPoint>| match point {
        None => Value::Null,
        Some(p) => object([
            ("v_logic_mv", Value::Number(p.v_logic.millivolts())),
            ("v_sram_mv", Value::Number(p.v_sram.millivolts())),
            ("accuracy", Value::Number(p.accuracy_mean)),
            (
                "dynamic_sram_j",
                Value::Number(p.energy.dynamic.sram.joules()),
            ),
            (
                "dynamic_logic_j",
                Value::Number(p.energy.dynamic.logic.joules()),
            ),
            (
                "dynamic_booster_j",
                Value::Number(p.energy.dynamic.booster.joules()),
            ),
            (
                "dynamic_total_j",
                Value::Number(p.energy.dynamic.total().joules()),
            ),
            (
                "dynamic_total_norm0v5",
                Value::Number(p.energy.normalized_total()),
            ),
            (
                "leakage_per_cycle_j",
                Value::Number(p.energy.leakage_per_cycle.joules()),
            ),
        ]),
    };
    [
        ("clean_accuracy", Value::Number(result.clean_accuracy)),
        ("target_accuracy", Value::Number(result.target_accuracy)),
        ("single", config(&result.single)),
        ("boosted", config(&result.boosted)),
        ("dual", config(&result.dual)),
        ("boosted_over_single", optional(result.boosted_over_single)),
        ("boosted_over_dual", optional(result.boosted_over_dual)),
    ]
}

/// A JSON number, or `null` when absent.
fn optional(x: Option<f64>) -> Value {
    x.map_or(Value::Null, Value::Number)
}

/// Renders an iso-accuracy solve as a compact JSON object (deterministic:
/// `BTreeMap` key order, same float formatter as every other endpoint).
#[must_use]
pub fn render_iso(spec: &IsoAccuracySpec, result: &IsoAccuracyResult) -> String {
    let spec = ("spec", Value::String(spec.canonical_string()));
    object(iso_result_entries(result).into_iter().chain([spec])).to_string_compact()
}

/// Renders a `/v1/retrain` response: the spec's canonical string, the
/// hardened weights' digest, the per-epoch training telemetry, the
/// baseline and hardened iso-accuracy solves (same rendering as
/// `/v1/iso-accuracy`), and the headline `V_min` gap / energy-ratio
/// summary. Deterministic like every other endpoint — `BTreeMap` key
/// order, shared float formatter.
#[must_use]
pub fn render_retrain(spec: &RetrainSpec, hardened: &HardenedNetwork) -> String {
    let epochs = hardened
        .epochs
        .iter()
        .map(|e| {
            object([
                ("epoch", int(e.epoch)),
                ("loss", Value::Number(f64::from(e.loss))),
                ("clean_accuracy", Value::Number(e.clean_accuracy)),
                ("faulty_accuracy", Value::Number(e.faulty_accuracy)),
            ])
        })
        .collect();
    object([
        ("spec", Value::String(spec.canonical_string())),
        (
            "weight_digest",
            Value::String(format!("{:016x}", hardened.weight_digest())),
        ),
        ("epochs", Value::Array(epochs)),
        ("baseline", object(iso_result_entries(&hardened.baseline))),
        ("hardened", object(iso_result_entries(&hardened.hardened))),
        (
            "vmin_gap_mv",
            object([
                ("single", optional(hardened.single_vmin_gap_mv())),
                ("boosted", optional(hardened.boosted_vmin_gap_mv())),
            ]),
        ),
        (
            "energy_ratio",
            object([
                ("single", optional(hardened.single_energy_ratio())),
                ("boosted", optional(hardened.boosted_energy_ratio())),
                ("dual", optional(hardened.dual_energy_ratio())),
            ]),
        ),
    ])
    .to_string_compact()
}

/// Runs a retrain spec synchronously through the library path and renders
/// the response body — the reference the HTTP path must match
/// byte-for-byte.
#[must_use]
pub fn run_retrain_json(spec: &RetrainSpec) -> String {
    render_retrain(spec, &spec.run())
}

/// Renders a retrain progress event line for the streaming endpoint: one
/// `epoch_start`/`epoch_done` pair per training epoch, the latter carrying
/// the epoch's mean loss and clean/faulty test accuracies.
#[must_use]
pub fn retrain_event_line(event: &RetrainEvent) -> String {
    match *event {
        RetrainEvent::EpochStart { epoch } => {
            object([("event", text("epoch_start")), ("epoch", int(epoch))])
        }
        RetrainEvent::EpochDone {
            epoch,
            loss,
            clean_accuracy,
            faulty_accuracy,
        } => object([
            ("event", text("epoch_done")),
            ("epoch", int(epoch)),
            ("loss", Value::Number(f64::from(loss))),
            ("clean_accuracy", Value::Number(clean_accuracy)),
            ("faulty_accuracy", Value::Number(faulty_accuracy)),
        ]),
    }
    .to_string_compact()
}

/// Renders one key/value error payload, e.g. `{"error": "..."}`.
#[must_use]
pub fn error_body(message: &str) -> String {
    object([("error", text(message))]).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn decodes_a_full_request() {
        let body = br#"{
            "seed": 9, "trials": 3,
            "voltages_mv": [400, 440],
            "ecc": "secded",
            "network": {"kind": "mnist_fc", "train_n": 100, "test_n": 50, "epochs": 2},
            "supply": {"kind": "dual", "v_h_mv": 600}
        }"#;
        let spec = decode_spec(body).unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.trials, 3);
        assert_eq!(spec.voltages_mv, vec![400, 440]);
        assert_eq!(spec.ecc, EccMode::SecDed);
        assert_eq!(
            spec.network,
            NetworkSpec::MnistFc {
                train_n: 100,
                test_n: 50,
                epochs: 2
            }
        );
        assert_eq!(spec.supply, SupplySpec::Dual { v_h_mv: 600 });
    }

    #[test]
    fn defaults_fill_in_and_grid_expands() {
        let spec =
            decode_spec(br#"{"grid": {"start_mv": 360, "stop_mv": 440, "step_mv": 40}}"#).unwrap();
        assert_eq!(spec.voltages_mv, vec![360, 400, 440]);
        assert_eq!(spec.network, NetworkSpec::Toy);
        assert_eq!(spec.trials, 4);
        assert_eq!(spec.supply, SupplySpec::Single);
    }

    #[test]
    fn decodes_geometry_and_scheduled_boost() {
        let spec = decode_spec(
            br#"{"voltages_mv": [400],
                 "supply": {"kind": "boosted_scheduled", "level": 3, "critical_layers": 2},
                 "geometry": {"rows": 256, "cols": 128, "mux": 4, "banks": 2}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.supply,
            SupplySpec::BoostedScheduled {
                level: 3,
                critical_layers: 2
            }
        );
        assert_eq!(
            spec.geometry,
            GeometrySpec::Structural(MacroGeometry::bank_64kbit())
        );
        assert_eq!(
            spec.canonical_string(),
            "dante.sweep.v5;seed=893310;trials=4;ecc=none;geom=struct(r=256,c=128,m=4,b=2);\
             fault=gaussian(mu=352,sigma=40,flip=500000);supply=boosted_sched(3,2);net=toy;\
             mv=400"
        );
        // "calibrated" and omission both select the default.
        let spec = decode_spec(br#"{"voltages_mv": [400], "geometry": "calibrated"}"#).unwrap();
        assert_eq!(spec.geometry, GeometrySpec::Calibrated);
        assert!(
            decode_spec(br#"{"voltages_mv": [400], "geometry": "wide"}"#)
                .unwrap_err()
                .contains("geometry")
        );
        assert!(
            decode_spec(br#"{"voltages_mv": [400], "geometry": {"rows": 256}}"#)
                .unwrap_err()
                .contains("geometry.cols")
        );
        // Invalid dimensions are caught by spec validation, naming the bound.
        let err = decode_spec(
            br#"{"voltages_mv": [400],
                 "geometry": {"rows": 100, "cols": 128, "mux": 4, "banks": 1}}"#,
        )
        .unwrap_err();
        assert!(err.contains("geometry"), "{err}");
        // Fleet bodies have no geometry: the field is an unknown key.
        let err = decode_fleet_spec(
            br#"{"dies": 64, "array_bits": 65536, "voltages_mv": [520, 560],
                 "geometry": {"rows": 256, "cols": 128, "mux": 4, "banks": 1}}"#,
        )
        .unwrap_err();
        assert!(err.contains("geometry"), "{err}");
    }

    #[test]
    fn decodes_supply_and_alexnet_tokens() {
        let spec = decode_spec(br#"{"voltages_mv": [400], "supply": "boosted"}"#).unwrap();
        assert_eq!(spec.supply, SupplySpec::Boosted { level: 4 });
        let spec =
            decode_spec(br#"{"voltages_mv": [400], "supply": {"kind": "boosted", "level": 2}}"#)
                .unwrap();
        assert_eq!(spec.supply, SupplySpec::Boosted { level: 2 });
        let spec = decode_spec(
            br#"{"voltages_mv": [400], "supply": {"kind": "boosted_plan", "config": "diff1"}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.supply,
            SupplySpec::BoostedPlan {
                config: NamedBoostConfig::Diff1
            }
        );
        assert!(spec
            .canonical_string()
            .contains(";supply=boosted_plan(diff1);"));
        let spec = decode_spec(
            br#"{"voltages_mv": [400], "trials": 2,
                 "network": {"kind": "alexnet_conv", "layers": 3, "train_n": 100,
                             "test_n": 20, "epochs": 1}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.network,
            NetworkSpec::AlexNetConv {
                layers: 3,
                train_n: 100,
                test_n: 20,
                epochs: 1
            }
        );
        let spec = decode_spec(br#"{"voltages_mv": [400], "network": "alexnet_conv"}"#).unwrap();
        assert_eq!(
            spec.network,
            NetworkSpec::AlexNetConv {
                layers: 5,
                train_n: 1200,
                test_n: 100,
                epochs: 4
            }
        );
    }

    #[test]
    fn rejections_name_the_field() {
        let cases: [(&[u8], &str); 18] = [
            (b"{", "parse error"),
            (br#"{"voltages_mv": [400], "trails": 1000}"#, "'trails'"),
            (
                br#"{"voltages_mv": [400], "supply": {"kind": "boosted", "levl": 2}}"#,
                "'supply.levl'",
            ),
            (
                br#"{"voltages_mv": [400], "seed": 9007199254740993}"#,
                "'seed' must be a non-negative integer below 2^53",
            ),
            (br#"{"voltages_mv": "x"}"#, "voltages_mv"),
            (br#"{"voltages_mv": [400.5]}"#, "millivolts"),
            (br#"{"voltages_mv": [400], "ecc": 3}"#, "ecc"),
            (br#"{"voltages_mv": [400], "network": "vgg"}"#, "vgg"),
            (br#"{"voltages_mv": [400], "trials": -2}"#, "trials"),
            (br#"{"voltages_mv": [200]}"#, "200"),
            (
                br#"{"voltages_mv": [400], "grid": {"start_mv": 1, "stop_mv": 2, "step_mv": 1}}"#,
                "not both",
            ),
            (br#"{"voltages_mv": [400, 400]}"#, "duplicate"),
            (br#"{"voltages_mv": [400], "supply": "dual"}"#, "v_h_mv"),
            (br#"{"voltages_mv": [400], "supply": "turbo"}"#, "turbo"),
            (
                br#"{"voltages_mv": [400], "supply": {"kind": "dual"}}"#,
                "v_h_mv",
            ),
            (
                br#"{"voltages_mv": [400], "supply": {"kind": "boosted", "level": 9}}"#,
                "level",
            ),
            (
                br#"{"voltages_mv": [400], "supply": {"kind": "boosted_plan", "config": "diff3"}}"#,
                "'supply.config'",
            ),
            (
                br#"{"voltages_mv": [400], "supply": {"kind": "boosted_plan"}}"#,
                "'supply.config'",
            ),
        ];
        for (body, needle) in cases {
            let err = decode_spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?}: expected {needle:?} in {err:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn record_is_a_pure_function_of_spec_and_results() {
        let spec = SweepSpec {
            voltages_mv: vec![400, 480],
            trials: 2,
            ..SweepSpec::toy_default()
        };
        let a = run_spec_json(&spec);
        let b = run_spec_json(&spec);
        assert_eq!(a, b, "two library runs must render identically");
        assert!(a.contains("accuracy mean"));
        assert!(a.contains("dynamic total [J]"));
        assert!(a.contains(&spec.canonical_string()));
    }

    #[test]
    fn record_energy_series_match_the_library_breakdown() {
        let spec = SweepSpec {
            voltages_mv: vec![440],
            trials: 2,
            supply: SupplySpec::Boosted { level: 3 },
            ..SweepSpec::toy_default()
        };
        let prep = spec.prepare();
        let json = build_record(&spec, &prep.run()).to_json_pretty();
        let v = Value::parse(&json).unwrap();
        let series = v.get("series").unwrap().as_array().unwrap();
        let find = |name: &str| -> f64 {
            series
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|s| s.get("points"))
                .and_then(Value::as_array)
                .and_then(|pts| pts[0].as_array())
                .and_then(|p| p[1].as_f64())
                .unwrap_or_else(|| panic!("series {name:?} missing in {json}"))
        };
        let expected = prep.point_energy(dante_circuit::units::Volt::from_millivolts(440.0));
        assert_eq!(find("dynamic sram [J]"), expected.dynamic.sram.joules());
        assert_eq!(find("dynamic logic [J]"), expected.dynamic.logic.joules());
        assert_eq!(
            find("dynamic booster [J]"),
            expected.dynamic.booster.joules()
        );
        assert_eq!(find("dynamic total [J]"), expected.dynamic.total().joules());
    }

    #[test]
    fn iso_query_decodes_and_rejects_unknowns() {
        let spec = decode_iso_query("").unwrap();
        assert_eq!(spec.network, NetworkSpec::Toy);
        assert_eq!(spec.level, 4);
        let spec =
            decode_iso_query("floor=0.9&trials=2&level=3&start_mv=380&stop_mv=460&step_mv=40")
                .unwrap();
        assert_eq!(spec.floor, 0.9);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.level, 3);
        assert_eq!(spec.voltages_mv, vec![380, 420, 460]);
        for (query, needle) in [
            ("flor=0.9", "flor"),
            ("floor=high", "floor"),
            ("level=9", "level"),
            ("network=vgg", "vgg"),
            ("start_mv=500&stop_mv=400", "stop_mv"),
            ("floor=2.0", "floor"),
        ] {
            let err = decode_iso_query(query).unwrap_err();
            assert!(err.contains(needle), "{query}: {err}");
        }
    }

    #[test]
    fn iso_render_is_deterministic_json() {
        let spec = IsoAccuracySpec {
            trials: 2,
            voltages_mv: vec![400, 480, 560],
            ..IsoAccuracySpec::toy_default()
        };
        let result = spec.solve();
        let a = render_iso(&spec, &result);
        assert_eq!(a, render_iso(&spec, &result));
        let v = Value::parse(&a).unwrap();
        assert!(v.get("clean_accuracy").and_then(Value::as_f64).unwrap() > 0.5);
        assert!(v.get("boosted").unwrap().get("v_logic_mv").is_some());
        assert_eq!(
            v.get("spec").and_then(Value::as_str),
            Some(spec.canonical_string().as_str())
        );
    }

    /// A fresh sweep job to observe.
    fn observed_job() -> Arc<Job> {
        crate::jobs::JobRegistry::new().create(
            crate::jobs::JobSpec::Sweep(SweepSpec::toy_default()),
            Vec::new(),
            "d".into(),
            String::new(),
        )
    }

    /// The job's last event line, parsed.
    fn last_event(job: &Job) -> Value {
        let state = job.state.lock().unwrap();
        Value::parse(state.events.last().expect("an event line")).unwrap()
    }

    #[test]
    fn event_lines_are_compact_json() {
        let job = observed_job();
        JobProgress::sweep_point(&job, 1, 440).on_trial_complete(3, Duration::from_micros(17));
        let v = last_event(&job);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("trial"));
        assert_eq!(v.get("trial").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("mv").and_then(Value::as_f64), Some(440.0));
        let progress = JobProgress::sweep_point(&job, 0, 400);
        progress.annotate_energy(1.5e-6);
        let v = last_event(&job);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("annotation"));
        assert_eq!(
            v.get("key").and_then(Value::as_str),
            Some("dynamic_energy_j")
        );
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(1.5e-6));
        progress.on_stage("corrupt", Duration::from_micros(1));
        assert_eq!(job.state.lock().unwrap().events.len(), 2);
    }

    #[test]
    fn decodes_fault_models_in_sweep_bodies() {
        let spec = decode_spec(br#"{"voltages_mv": [400]}"#).unwrap();
        assert_eq!(spec.fault_model, FaultModel::default());
        let spec =
            decode_spec(br#"{"voltages_mv": [400], "fault_model": "correlated_burst"}"#).unwrap();
        assert_eq!(spec.fault_model, FaultModel::burst_default());
        let spec = decode_spec(
            br#"{"voltages_mv": [400],
                 "fault_model": {"kind": "chip_variation", "mu_spread_mv": 25}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.fault_model,
            FaultModel::ChipVariation {
                mu_mv: dante_sram::model::DEFAULT_MU_MV,
                sigma_mv: dante_sram::model::DEFAULT_SIGMA_MV,
                flip_ppm: dante_sram::model::DEFAULT_FLIP_PPM,
                mu_spread_mv: 25,
                sigma_spread_pct: 10,
            }
        );
        for (body, needle) in [
            (
                br#"{"voltages_mv": [400], "fault_model": "thermal"}"#.as_slice(),
                "thermal",
            ),
            (
                br#"{"voltages_mv": [400], "fault_model": {"kind": "burst", "x": 1}}"#.as_slice(),
                "kind",
            ),
            (
                br#"{"voltages_mv": [400], "fault_model": {"kind": "gaussian", "mu_mv": "hi"}}"#
                    .as_slice(),
                "mu_mv",
            ),
            (
                br#"{"voltages_mv": [400], "fault_model": {"kind": "gaussian", "sigma_mv": 900}}"#
                    .as_slice(),
                "sigma",
            ),
        ] {
            let err = decode_spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?}: expected {needle:?} in {err:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn decodes_fleet_specs_with_defaults_and_grids() {
        let spec = decode_fleet_spec(b"{}").unwrap();
        assert_eq!(spec, dante::fleet::FleetSpec::toy_default());
        let spec = decode_fleet_spec(
            br#"{"seed": 9, "dies": 64, "array_bits": 65536,
                 "grid": {"start_mv": 520, "stop_mv": 600, "step_mv": 40},
                 "fault_model": "chip_variation"}"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.dies, 64);
        assert_eq!(spec.array_bits, 65536);
        assert_eq!(spec.voltages_mv, vec![520, 560, 600]);
        assert_eq!(spec.fault_model, FaultModel::chip_variation_default());
        for (body, needle) in [
            (br#"{"dies": 0}"#.as_slice(), "dies"),
            (br#"{"voltages_mv": [560, 520]}"#.as_slice(), "increasing"),
            (
                br#"{"voltages_mv": [520], "grid": {"start_mv": 1, "stop_mv": 2, "step_mv": 1}}"#
                    .as_slice(),
                "not both",
            ),
            (br#"{"fault_model": 7}"#.as_slice(), "fault_model"),
            (br#"{"die": 64}"#.as_slice(), "'die'"),
        ] {
            let err = decode_fleet_spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?}: expected {needle:?} in {err:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn fleet_record_is_a_pure_function_of_the_spec() {
        let spec = decode_fleet_spec(
            br#"{"dies": 32, "array_bits": 16384,
                 "grid": {"start_mv": 520, "stop_mv": 600, "step_mv": 40}}"#,
        )
        .unwrap();
        let a = run_fleet_json(&spec);
        let b = run_fleet_json(&spec);
        assert_eq!(a, b, "two library runs must render identically");
        for needle in [
            "\"id\": \"fleet\"",
            "vmin quantile [V]",
            "analytic single-die yield",
        ] {
            assert!(a.contains(needle), "fleet record missing {needle}");
        }
        assert!(a.contains(&spec.canonical_string()));
    }

    #[test]
    fn fleet_event_lines_name_dies() {
        let job = observed_job();
        let progress = JobProgress::fleet(&job);
        progress.on_trial_complete(7, Duration::from_micros(11));
        let v = last_event(&job);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("die"));
        assert_eq!(v.get("die").and_then(Value::as_f64), Some(7.0));
        progress.on_fault_bits(7, 3);
        let v = last_event(&job);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("die_faults"));
        assert_eq!(v.get("cells").and_then(Value::as_f64), Some(3.0));
        progress.on_stage("sample", Duration::from_micros(1));
        assert_eq!(job.state.lock().unwrap().events.len(), 2);
    }

    #[test]
    fn sweep_record_ber_series_follows_the_spec_fault_model() {
        let base = SweepSpec {
            voltages_mv: vec![440],
            trials: 2,
            ..SweepSpec::toy_default()
        };
        let burst = SweepSpec {
            fault_model: FaultModel::burst_default(),
            ..base.clone()
        };
        let ber_of = |spec: &SweepSpec| -> f64 {
            let prep = spec.prepare();
            let json = build_record(spec, &prep.run()).to_json_pretty();
            let v = Value::parse(&json).unwrap();
            v.get("series")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some("bit error rate"))
                .and_then(|s| s.get("points"))
                .and_then(Value::as_array)
                .and_then(|pts| pts[0].as_array())
                .and_then(|p| p[1].as_f64())
                .unwrap()
        };
        let v = dante_circuit::units::Volt::from_millivolts(440.0);
        assert_eq!(ber_of(&base), base.fault_model.marginal_ber(v));
        assert_eq!(ber_of(&burst), burst.fault_model.marginal_ber(v));
        assert!(
            ber_of(&burst) > ber_of(&base),
            "weak-cell bursts raise the marginal BER"
        );
    }

    #[test]
    fn sampling_field_is_rejected_not_ignored() {
        // Any value — even the one sampler that exists — is a 400 naming
        // the field, so no client silently gets results it did not ask for.
        for value in [r#""dense""#, r#""sparse_tail""#, "null"] {
            let sweep = format!(r#"{{"voltages_mv": [400], "sampling": {value}}}"#);
            let retrain = format!(r#"{{"sampling": {value}}}"#);
            for err in [
                decode_spec(sweep.as_bytes()).unwrap_err(),
                decode_retrain_spec(retrain.as_bytes()).unwrap_err(),
            ] {
                assert!(err.contains("'sampling'"), "{value}: {err}");
            }
        }
        // A shard leg's spec goes through the same decoder, so a leg cannot
        // carry the field either.
        let leg = br#"{"key": "k", "spec": {"voltages_mv": [400], "sampling": "sparse_tail"},
                       "trial_offset": 0, "trial_count": 1}"#;
        let err = decode_shard_sweep_request(leg).unwrap_err();
        assert!(err.contains("'sampling'"), "{err}");
    }

    #[test]
    fn float_bits_survive_the_wire_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.971_234_567_890_123_4,
        ] {
            let back = f64_from_hex(&f64_hex(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(f64_from_hex("abc").is_err(), "short strings rejected");
        assert!(f64_from_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn shard_sweep_codecs_round_trip_and_validate_windows() {
        let spec = SweepSpec {
            voltages_mv: vec![400, 480],
            trials: 5,
            ..SweepSpec::toy_default()
        };
        let key = digest(&spec.canonical_string());
        let leg = |offset: usize, count: usize| {
            format!(
                r#"{{"key": "{key}", "spec": {{"voltages_mv": [400, 480], "trials": 5}},
                    "trial_offset": {offset}, "trial_count": {count}}}"#
            )
        };
        assert_eq!(
            decode_shard_sweep_request(leg(2, 3).as_bytes()).unwrap(),
            (spec.clone(), 2, 3)
        );
        // The coordinator writes the same leg, its spec re-rendered compact.
        let json = parse_body(b"{ \"voltages_mv\": [ 400, 480 ],\n  \"trials\": 5 }").unwrap();
        let body = encode_window(&key, &json, TRIAL_WINDOW, 2, 3);
        assert_eq!(
            body,
            format!(
                r#"{{"key":"{key}","spec":{{"trials":5,"voltages_mv":[400,480]}},"trial_count":3,"trial_offset":2}}"#
            )
        );
        assert_eq!(
            decode_shard_sweep_request(body.as_bytes()).unwrap(),
            (spec, 2, 3)
        );
        // Empty windows and windows past the trial count are rejected.
        for (offset, count) in [(3, 3), (5, 1), (0, 0)] {
            let err = decode_shard_sweep_request(leg(offset, count).as_bytes()).unwrap_err();
            assert!(err.contains("window"), "{offset}+{count}: {err}");
        }
        let per_point = vec![
            vec![0.5, 1.0 / 3.0, 0.971],
            vec![0.25, -0.0, f64::MIN_POSITIVE],
        ];
        let decoded =
            decode_shard_sweep_response(encode_shard_sweep_response(&per_point).as_bytes())
                .unwrap();
        assert_eq!(decoded.len(), per_point.len());
        for (a, b) in decoded.iter().flatten().zip(per_point.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Error payloads from a peer decode to Err, not a panic.
        assert!(decode_shard_sweep_response(br#"{"error": "boom"}"#).is_err());
    }

    #[test]
    fn shard_fleet_codecs_round_trip_and_validate_windows() {
        let spec = FleetSpec {
            dies: 7,
            array_bits: 16384,
            ..FleetSpec::toy_default()
        };
        let key = digest(&spec.canonical_string());
        let leg = |offset: usize, count: usize| {
            format!(
                r#"{{"key": "{key}", "spec": {{"dies": 7, "array_bits": 16384}},
                    "die_offset": {offset}, "die_count": {count}}}"#
            )
        };
        assert_eq!(
            decode_shard_fleet_request(leg(3, 4).as_bytes()).unwrap(),
            (spec, 3, 4)
        );
        for (offset, count) in [(4, 4), (7, 1), (0, 0)] {
            let err = decode_shard_fleet_request(leg(offset, count).as_bytes()).unwrap_err();
            assert!(err.contains("window"), "{offset}+{count}: {err}");
        }
        // A sweep leg's window keys do not open a fleet leg.
        let err = decode_shard_fleet_request(
            format!(r#"{{"key": "{key}", "spec": {{}}, "trial_offset": 0, "trial_count": 1}}"#)
                .as_bytes(),
        )
        .unwrap_err();
        assert!(err.contains("die_offset"), "{err}");
        let dies = vec![
            DieOutcome {
                v_min: 0.561_234_567_89,
                censored: false,
                fault_cells: 3,
            },
            DieOutcome {
                v_min: 0.5,
                censored: true,
                fault_cells: 0,
            },
        ];
        let decoded =
            decode_shard_fleet_response(encode_shard_fleet_response(&dies).as_bytes()).unwrap();
        assert_eq!(decoded, dies);
        assert_eq!(decoded[0].v_min.to_bits(), dies[0].v_min.to_bits());
        assert!(decode_shard_fleet_response(br#"{"error": "boom"}"#).is_err());
    }

    /// A leg's spec is whatever JSON the client sent, defaults left out; the
    /// peer fills them in exactly as the coordinator's endpoint did, so both
    /// sides hold one spec under one key.
    #[test]
    fn leg_specs_that_leave_every_default_out_decode_to_the_coordinators_spec() {
        let body = br#"{"voltages_mv": [400]}"#;
        let spec = decode_spec(body).unwrap();
        let json = parse_body(body).unwrap();
        let key = digest(&spec.canonical_string());
        let leg = encode_window(&key, &json, TRIAL_WINDOW, 1, 2);
        assert_eq!(
            decode_shard_sweep_request(leg.as_bytes()).unwrap(),
            (spec, 1, 2)
        );

        let spec = decode_fleet_spec(b"{}").unwrap();
        assert_eq!(spec, FleetSpec::toy_default());
        let key = digest(&spec.canonical_string());
        let leg = encode_window(&key, &Value::Object(BTreeMap::new()), DIE_WINDOW, 0, 5);
        assert_eq!(
            decode_shard_fleet_request(leg.as_bytes()).unwrap(),
            (spec, 0, 5)
        );
    }

    #[test]
    fn retrain_body_decodes_and_rejections_name_the_field() {
        let spec = decode_retrain_spec(b"{}").unwrap();
        assert_eq!(spec, RetrainSpec::toy_default());
        let spec = decode_retrain_spec(
            br#"{"seed": 11, "target_mv": 420, "epochs": 3, "resample": "hold",
                 "grid": {"start_mv": 360, "stop_mv": 440, "step_mv": 40},
                 "trials": 2, "floor": 0.9, "level": 3,
                 "ecc": "secded", "fault_model": "correlated_burst",
                 "network": "mnist_fc"}"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 11);
        assert_eq!(spec.target_mv, 420);
        assert_eq!(spec.epochs, 3);
        assert_eq!(spec.resample, ResamplePolicy::Hold);
        assert_eq!(spec.voltages_mv, vec![360, 400, 440]);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.floor, 0.9);
        assert_eq!(spec.level, 3);
        assert_eq!(spec.ecc, EccMode::SecDed);
        assert_eq!(spec.fault_model, FaultModel::burst_default());
        assert!(matches!(spec.network, NetworkSpec::MnistFc { .. }));

        let cases: [(&[u8], &str); 8] = [
            (br#"{"epoch": 3}"#, "'epoch'"),
            (br#"{"target_mv": 200}"#, "target_mv"),
            (br#"{"epochs": 0}"#, "epochs"),
            (br#"{"epochs": 40}"#, "epochs"),
            (br#"{"resample": "sometimes"}"#, "resample"),
            (br#"{"floor": "high"}"#, "floor"),
            (br#"{"network": "vgg"}"#, "vgg"),
            (
                br#"{"voltages_mv": [400], "grid": {"start_mv": 1, "stop_mv": 2, "step_mv": 1}}"#,
                "not both",
            ),
        ];
        for (body, needle) in cases {
            let err = decode_retrain_spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?}: expected {needle:?} in {err:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn retrain_render_is_deterministic_and_carries_the_comparison() {
        let spec = RetrainSpec {
            trials: 2,
            epochs: 1,
            voltages_mv: vec![360, 420, 480, 540],
            ..RetrainSpec::toy_default()
        };
        let a = run_retrain_json(&spec);
        assert_eq!(a, run_retrain_json(&spec), "renders must be byte-identical");
        let v = Value::parse(&a).unwrap();
        assert_eq!(
            v.get("spec").and_then(Value::as_str),
            Some(spec.canonical_string().as_str())
        );
        let digest = v.get("weight_digest").and_then(Value::as_str).unwrap();
        assert_eq!(digest.len(), 16, "digest is 16 hex chars, got {digest:?}");
        let epochs = v.get("epochs").and_then(Value::as_array).unwrap();
        assert_eq!(epochs.len(), 1);
        assert!(epochs[0].get("loss").and_then(Value::as_f64).is_some());
        // Baseline and hardened sub-objects render exactly like /v1/iso-accuracy.
        for key in ["baseline", "hardened"] {
            let solve = v.get(key).unwrap();
            assert!(solve
                .get("clean_accuracy")
                .and_then(Value::as_f64)
                .is_some());
            assert!(solve.get("single").is_some());
            assert!(solve.get("boosted_over_single").is_some());
        }
        assert!(v.get("vmin_gap_mv").unwrap().get("single").is_some());
        assert!(v.get("energy_ratio").unwrap().get("dual").is_some());
    }

    #[test]
    fn retrain_event_lines_are_compact_json() {
        let line = retrain_event_line(&RetrainEvent::EpochStart { epoch: 2 });
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("epoch_start"));
        assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(2.0));
        let line = retrain_event_line(&RetrainEvent::EpochDone {
            epoch: 2,
            loss: 0.5,
            clean_accuracy: 0.9,
            faulty_accuracy: 0.8,
        });
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("epoch_done"));
        assert_eq!(v.get("loss").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("clean_accuracy").and_then(Value::as_f64), Some(0.9));
        assert_eq!(v.get("faulty_accuracy").and_then(Value::as_f64), Some(0.8));
    }

    #[test]
    fn error_body_escapes_cleanly() {
        let body = error_body("bad \"thing\" at byte 3");
        let v = Value::parse(&body).unwrap();
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("bad \"thing\" at byte 3")
        );
    }
}
