//! The wire schema: JSON sweep requests in, `dante-bench` figure records
//! out, progress events as JSON lines, and the iso-accuracy query/response
//! encoding.
//!
//! Decoding is strict — unknown ECC/network/supply tokens, mistyped
//! fields, the retired `sampling` field, and unknown iso-accuracy query keys
//! are rejected with a message naming the field, so a 400 always tells the
//! client what to fix.

use dante::accuracy::EccMode;
use dante::fleet::{DieOutcome, FleetResult, FleetSpec};
use dante::iso::{IsoAccuracyResult, IsoAccuracySpec, IsoConfigPoint};
use dante::retrain::{HardenedNetwork, ResamplePolicy, RetrainEvent, RetrainSpec};
use dante::sweep::{GeometrySpec, NetworkSpec, SupplySpec, SweepPoint, SweepSpec};
use dante_bench::json::Value;
use dante_bench::record::{FigureRecord, Series};
use dante_circuit::macro_model::MacroGeometry;
use dante_circuit::units::Volt;
use dante_sim::TrialEvent;
use dante_sram::model::{CellFaultRate, FaultModel};
use std::collections::BTreeMap;

/// Decodes a `POST /v1/sweep` body into a spec.
///
/// Accepted shape (everything except `voltages_mv`/`grid` optional):
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
///           | {"kind": "dual", "v_h_mv": 600},
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
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    decode_spec_value(&v)
}

/// Decodes an already-parsed sweep-spec object (the `spec` sub-object of a
/// shard request, or a whole `POST /v1/sweep` body).
///
/// # Errors
///
/// Same contract as [`decode_spec`].
pub fn decode_spec_value(v: &Value) -> Result<SweepSpec, String> {
    reject_sampling(v)?;
    if v.get("voltages_mv").is_some() && v.get("grid").is_some() {
        return Err("give either 'voltages_mv' or 'grid', not both".to_owned());
    }

    let u64_field = |key: &str, default: u64| -> Result<u64, String> {
        match v.get(key) {
            None => Ok(default),
            Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= 1.8e19 => {
                Ok(*n as u64)
            }
            Some(_) => Err(format!("'{key}' must be a non-negative integer")),
        }
    };

    let voltages_mv = if let Some(grid) = v.get("grid") {
        let part = |key: &str| -> Result<u32, String> {
            grid.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                .map(|n| n as u32)
                .ok_or_else(|| format!("'grid.{key}' must be a small non-negative integer"))
        };
        let (start, stop, step) = (part("start_mv")?, part("stop_mv")?, part("step_mv")?);
        if step == 0 || stop < start {
            return Err("'grid' needs step_mv >= 1 and stop_mv >= start_mv".to_owned());
        }
        (start..=stop).step_by(step as usize).collect()
    } else {
        v.get("voltages_mv")
            .ok_or_else(|| "missing 'voltages_mv' (or 'grid')".to_owned())?
            .as_array()
            .ok_or_else(|| "'voltages_mv' must be an array".to_owned())?
            .iter()
            .map(|p| {
                p.as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                    .map(|n| n as u32)
                    .ok_or_else(|| "'voltages_mv' entries must be integers (millivolts)".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?
    };

    let ecc = decode_ecc(v.get("ecc"))?;

    let network = decode_network(v.get("network"))?;

    let supply = match v.get("supply") {
        None => SupplySpec::Single,
        Some(Value::String(s)) => match s.as_str() {
            "single" => SupplySpec::Single,
            // Bare "boosted" means the strongest boost (Table 1's Vddv4).
            "boosted" => SupplySpec::Boosted { level: 4 },
            "dual" => {
                return Err("'supply': \"dual\" needs a memory rail; use \
                     {\"kind\": \"dual\", \"v_h_mv\": ...}"
                    .to_owned())
            }
            other => return Err(format!("unknown supply {other:?}")),
        },
        Some(obj @ Value::Object(_)) => {
            let kind = obj
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| "'supply.kind' must be a string".to_owned())?;
            let int = |key: &str, default: u64| -> Result<u64, String> {
                match obj.get(key) {
                    None => Ok(default),
                    Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=1e6).contains(n) => {
                        Ok(*n as u64)
                    }
                    Some(_) => Err(format!("'supply.{key}' must be a small integer")),
                }
            };
            match kind {
                "single" => SupplySpec::Single,
                "boosted" => SupplySpec::Boosted {
                    level: int("level", 4)? as usize,
                },
                "boosted_scheduled" => SupplySpec::BoostedScheduled {
                    level: int("level", 4)? as usize,
                    critical_layers: int("critical_layers", 1)? as usize,
                },
                "dual" => match obj.get("v_h_mv") {
                    Some(_) => SupplySpec::Dual {
                        v_h_mv: int("v_h_mv", 0)? as u32,
                    },
                    None => return Err("'supply.v_h_mv' is required for dual".to_owned()),
                },
                other => return Err(format!("unknown supply kind {other:?}")),
            }
        }
        Some(_) => return Err("'supply' must be a string or object".to_owned()),
    };

    let spec = SweepSpec {
        seed: u64_field("seed", 0xDA17E)?,
        voltages_mv,
        trials: usize::try_from(u64_field("trials", 4)?).unwrap_or(usize::MAX),
        ecc,
        network,
        supply,
        fault_model: decode_fault_model(v.get("fault_model"))?,
        geometry: decode_geometry(v.get("geometry"))?,
    };
    spec.validate()?;
    Ok(spec)
}

/// Decodes the optional `geometry` field shared by `/v1/sweep` and
/// `/v1/fleet` bodies.
///
/// Accepted shapes (omitting the field — or `"calibrated"` — selects the
/// scalar calibration, which keeps the spec's historical cache key):
///
/// ```json
/// "calibrated" | {"rows": 256, "cols": 128, "mux": 4, "banks": 2}
/// ```
///
/// Range checks happen in the spec's own `validate`, so a 400 names the
/// bound.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn decode_geometry(v: Option<&Value>) -> Result<GeometrySpec, String> {
    let Some(v) = v else {
        return Ok(GeometrySpec::Calibrated);
    };
    match v {
        Value::String(s) if s == "calibrated" => Ok(GeometrySpec::Calibrated),
        Value::String(other) => Err(format!("unknown geometry {other:?}")),
        obj @ Value::Object(_) => {
            let dim = |key: &str| -> Result<usize, String> {
                match obj.get(key) {
                    Some(Value::Number(n)) if n.fract() == 0.0 && (1.0..=1e6).contains(n) => {
                        Ok(*n as usize)
                    }
                    _ => Err(format!("'geometry.{key}' must be a small positive integer")),
                }
            };
            Ok(GeometrySpec::Structural(MacroGeometry {
                rows: dim("rows")?,
                cols: dim("cols")?,
                mux: dim("mux")?,
                banks: dim("banks")?,
            }))
        }
        _ => Err("'geometry' must be \"calibrated\" or an object".to_owned()),
    }
}

/// Decodes the optional `fault_model` field shared by `/v1/sweep` and
/// `/v1/fleet` bodies.
///
/// Accepted shapes (omitting the field selects the paper's default
/// Gaussian, which keeps the spec's historical cache key):
///
/// ```json
/// "gaussian" | "correlated_burst" | "chip_variation"
/// | {"kind": "gaussian", "mu_mv": 352, "sigma_mv": 40, "flip_ppm": 500000}
/// | {"kind": "correlated_burst", "row_weak_ppm": 2000, "col_weak_ppm": 1000, "shift_mv": 120}
/// | {"kind": "chip_variation", "mu_spread_mv": 15, "sigma_spread_pct": 10}
/// ```
///
/// Object forms also accept the base `mu_mv`/`sigma_mv`/`flip_ppm` keys;
/// anything omitted falls back to the calibrated 14 nm defaults. Range
/// checks happen in the spec's own `validate`, so a 400 names the bound.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn decode_fault_model(v: Option<&Value>) -> Result<FaultModel, String> {
    let Some(v) = v else {
        return Ok(FaultModel::default());
    };
    let bare = |token: &str| -> Result<FaultModel, String> {
        match token {
            "gaussian" => Ok(FaultModel::gaussian_default()),
            "correlated_burst" => Ok(FaultModel::burst_default()),
            "chip_variation" => Ok(FaultModel::chip_variation_default()),
            other => Err(format!("unknown fault_model {other:?}")),
        }
    };
    match v {
        Value::String(s) => bare(s),
        obj @ Value::Object(_) => {
            let kind = obj
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| "'fault_model.kind' must be a string".to_owned())?;
            let int = |key: &str, default: u32| -> Result<u32, String> {
                match obj.get(key) {
                    None => Ok(default),
                    Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=1e7).contains(n) => {
                        Ok(*n as u32)
                    }
                    Some(_) => Err(format!("'fault_model.{key}' must be a small integer")),
                }
            };
            let mu_mv = int("mu_mv", dante_sram::model::DEFAULT_MU_MV)?;
            let sigma_mv = int("sigma_mv", dante_sram::model::DEFAULT_SIGMA_MV)?;
            let flip_ppm = int("flip_ppm", dante_sram::model::DEFAULT_FLIP_PPM)?;
            match kind {
                "gaussian" => Ok(FaultModel::Gaussian {
                    mu_mv,
                    sigma_mv,
                    flip_ppm,
                }),
                "correlated_burst" => Ok(FaultModel::CorrelatedBurst {
                    mu_mv,
                    sigma_mv,
                    flip_ppm,
                    row_weak_ppm: int("row_weak_ppm", 2000)?,
                    col_weak_ppm: int("col_weak_ppm", 1000)?,
                    shift_mv: int("shift_mv", 120)?,
                }),
                "chip_variation" => Ok(FaultModel::ChipVariation {
                    mu_mv,
                    sigma_mv,
                    flip_ppm,
                    mu_spread_mv: int("mu_spread_mv", 15)?,
                    sigma_spread_pct: int("sigma_spread_pct", 10)?,
                }),
                other => Err(format!("unknown fault_model kind {other:?}")),
            }
        }
        _ => Err("'fault_model' must be a string or object".to_owned()),
    }
}

/// Decodes a `POST /v1/fleet` body into a [`FleetSpec`].
///
/// Accepted shape (every field optional; defaults are the fleet toy spec —
/// a thousand 1 Mbit dies of the default Gaussian process):
///
/// ```json
/// {
///   "seed": 17, "dies": 1000, "array_bits": 1048576,
///   "voltages_mv": [520, 560, 600],
///   "grid": {"start_mv": 500, "stop_mv": 640, "step_mv": 10},
///   "fault_model": "chip_variation",
///   "geometry": "calibrated"
///           | {"rows": 256, "cols": 128, "mux": 4, "banks": 2}
/// }
/// ```
///
/// # Errors
///
/// Returns a human-readable reason naming the first offending field or the
/// first bound the assembled spec violates.
pub fn decode_fleet_spec(body: &[u8]) -> Result<FleetSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    decode_fleet_value(&v)
}

/// Decodes an already-parsed fleet-spec object (the `spec` sub-object of a
/// shard request, or a whole `POST /v1/fleet` body).
///
/// # Errors
///
/// Same contract as [`decode_fleet_spec`].
pub fn decode_fleet_value(v: &Value) -> Result<FleetSpec, String> {
    if v.get("voltages_mv").is_some() && v.get("grid").is_some() {
        return Err("give either 'voltages_mv' or 'grid', not both".to_owned());
    }
    let mut spec = FleetSpec::toy_default();
    match v.get("seed") {
        None => {}
        Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= 1.8e19 => {
            spec.seed = *n as u64;
        }
        Some(_) => return Err("'seed' must be a non-negative integer".to_owned()),
    }
    let size = |key: &str, default: usize| -> Result<usize, String> {
        match v.get(key) {
            None => Ok(default),
            Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=1e9).contains(n) => {
                Ok(*n as usize)
            }
            Some(_) => Err(format!("'{key}' must be a small non-negative integer")),
        }
    };
    spec.dies = size("dies", spec.dies)?;
    spec.array_bits = size("array_bits", spec.array_bits)?;
    if let Some(grid) = v.get("grid") {
        let part = |key: &str| -> Result<u32, String> {
            grid.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                .map(|n| n as u32)
                .ok_or_else(|| format!("'grid.{key}' must be a small non-negative integer"))
        };
        let (start, stop, step) = (part("start_mv")?, part("stop_mv")?, part("step_mv")?);
        if step == 0 || stop < start {
            return Err("'grid' needs step_mv >= 1 and stop_mv >= start_mv".to_owned());
        }
        spec.voltages_mv = (start..=stop).step_by(step as usize).collect();
    } else if let Some(volts) = v.get("voltages_mv") {
        spec.voltages_mv = volts
            .as_array()
            .ok_or_else(|| "'voltages_mv' must be an array".to_owned())?
            .iter()
            .map(|p| {
                p.as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                    .map(|n| n as u32)
                    .ok_or_else(|| "'voltages_mv' entries must be integers (millivolts)".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    spec.fault_model = decode_fault_model(v.get("fault_model"))?;
    spec.geometry = decode_geometry(v.get("geometry"))?;
    spec.validate()?;
    Ok(spec)
}

/// Decodes a `POST /v1/retrain` body into a [`RetrainSpec`].
///
/// Accepted shape (every field optional; defaults are the toy hardening
/// run at 380 mV):
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
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    decode_retrain_value(&v)
}

/// Decodes an already-parsed retrain-spec object.
///
/// # Errors
///
/// Same contract as [`decode_retrain_spec`].
pub fn decode_retrain_value(v: &Value) -> Result<RetrainSpec, String> {
    reject_sampling(v)?;
    if v.get("voltages_mv").is_some() && v.get("grid").is_some() {
        return Err("give either 'voltages_mv' or 'grid', not both".to_owned());
    }
    let mut spec = RetrainSpec::toy_default();
    match v.get("seed") {
        None => {}
        Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= 1.8e19 => {
            spec.seed = *n as u64;
        }
        Some(_) => return Err("'seed' must be a non-negative integer".to_owned()),
    }
    let size = |key: &str, default: usize| -> Result<usize, String> {
        match v.get(key) {
            None => Ok(default),
            Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=1e9).contains(n) => {
                Ok(*n as usize)
            }
            Some(_) => Err(format!("'{key}' must be a small non-negative integer")),
        }
    };
    spec.target_mv = size("target_mv", spec.target_mv as usize)? as u32;
    spec.epochs = size("epochs", spec.epochs)?;
    spec.trials = size("trials", spec.trials)?;
    spec.level = size("level", spec.level)?;
    spec.resample = match v.get("resample").map(|s| s.as_str()) {
        None => spec.resample,
        Some(Some("every_epoch")) => ResamplePolicy::EveryEpoch,
        Some(Some("hold")) => ResamplePolicy::Hold,
        Some(other) => {
            return Err(format!(
                "'resample' must be \"every_epoch\" or \"hold\", got {other:?}"
            ))
        }
    };
    match v.get("floor") {
        None => {}
        Some(Value::Number(n)) if n.is_finite() => spec.floor = *n,
        Some(_) => return Err("'floor' must be a finite number".to_owned()),
    }
    if let Some(grid) = v.get("grid") {
        let part = |key: &str| -> Result<u32, String> {
            grid.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                .map(|n| n as u32)
                .ok_or_else(|| format!("'grid.{key}' must be a small non-negative integer"))
        };
        let (start, stop, step) = (part("start_mv")?, part("stop_mv")?, part("step_mv")?);
        if step == 0 || stop < start {
            return Err("'grid' needs step_mv >= 1 and stop_mv >= start_mv".to_owned());
        }
        spec.voltages_mv = (start..=stop).step_by(step as usize).collect();
    } else if let Some(volts) = v.get("voltages_mv") {
        spec.voltages_mv = volts
            .as_array()
            .ok_or_else(|| "'voltages_mv' must be an array".to_owned())?
            .iter()
            .map(|p| {
                p.as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=1e6).contains(n))
                    .map(|n| n as u32)
                    .ok_or_else(|| "'voltages_mv' entries must be integers (millivolts)".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    spec.ecc = decode_ecc(v.get("ecc"))?;
    spec.network = decode_network(v.get("network"))?;
    spec.fault_model = decode_fault_model(v.get("fault_model"))?;
    spec.validate()?;
    Ok(spec)
}

/// Rejects the retired `sampling` field of `/v1/sweep` and `/v1/retrain`
/// bodies. Bodies otherwise ignore unknown keys, but a client asking for a
/// sampler by name must not silently get another one's results.
fn reject_sampling(v: &Value) -> Result<(), String> {
    match v.get("sampling") {
        None => Ok(()),
        Some(_) => Err(
            "'sampling' is not accepted: the sparse-tail sampler is the only \
             one, so remove the field"
                .to_owned(),
        ),
    }
}

/// Decodes the optional `ecc` token shared by `/v1/sweep` and `/v1/retrain`
/// bodies; omitting it selects no protection.
fn decode_ecc(v: Option<&Value>) -> Result<EccMode, String> {
    match v.map(|s| s.as_str()) {
        None => Ok(EccMode::None),
        Some(Some("none")) => Ok(EccMode::None),
        Some(Some("secded")) => Ok(EccMode::SecDed),
        Some(other) => Err(format!(
            "'ecc' must be \"none\" or \"secded\", got {other:?}"
        )),
    }
}

/// Decodes the optional `network` field shared by `/v1/sweep` and
/// `/v1/retrain` bodies: a bare token or a sized object; omitting the
/// field selects the toy network.
fn decode_network(v: Option<&Value>) -> Result<NetworkSpec, String> {
    match v {
        None => Ok(NetworkSpec::Toy),
        Some(Value::String(s)) => default_network(s),
        Some(obj @ Value::Object(_)) => {
            let kind = obj
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| "'network.kind' must be a string".to_owned())?;
            let size = |key: &str, default: usize| -> Result<usize, String> {
                match obj.get(key) {
                    None => Ok(default),
                    Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=1e9).contains(n) => {
                        Ok(*n as usize)
                    }
                    Some(_) => Err(format!("'network.{key}' must be a small integer")),
                }
            };
            match kind {
                "mnist_fc" => Ok(NetworkSpec::MnistFc {
                    train_n: size("train_n", 1200)?,
                    test_n: size("test_n", 100)?,
                    epochs: size("epochs", 4)?,
                }),
                "alexnet_conv" => Ok(NetworkSpec::AlexNetConv {
                    layers: size("layers", 5)?,
                    train_n: size("train_n", 1200)?,
                    test_n: size("test_n", 100)?,
                    epochs: size("epochs", 4)?,
                }),
                other => Err(format!("unknown network kind {other:?}")),
            }
        }
        Some(_) => Err("'network' must be a string or object".to_owned()),
    }
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

/// Encodes a sweep spec as a JSON object [`decode_spec_value`] accepts —
/// the wire form shard requests carry. Every field is written explicitly
/// (no defaults elided), so a backend on the same build decodes a spec
/// with the identical canonical string.
#[must_use]
pub fn encode_spec_value(spec: &SweepSpec) -> Value {
    let num = |n: f64| Value::Number(n);
    let network = match spec.network {
        NetworkSpec::Toy => Value::String("toy".to_owned()),
        NetworkSpec::MnistFc {
            train_n,
            test_n,
            epochs,
        } => Value::Object(BTreeMap::from([
            ("kind".to_owned(), Value::String("mnist_fc".to_owned())),
            ("train_n".to_owned(), num(train_n as f64)),
            ("test_n".to_owned(), num(test_n as f64)),
            ("epochs".to_owned(), num(epochs as f64)),
        ])),
        NetworkSpec::AlexNetConv {
            layers,
            train_n,
            test_n,
            epochs,
        } => Value::Object(BTreeMap::from([
            ("kind".to_owned(), Value::String("alexnet_conv".to_owned())),
            ("layers".to_owned(), num(layers as f64)),
            ("train_n".to_owned(), num(train_n as f64)),
            ("test_n".to_owned(), num(test_n as f64)),
            ("epochs".to_owned(), num(epochs as f64)),
        ])),
    };
    let supply = match spec.supply {
        SupplySpec::Single => Value::String("single".to_owned()),
        SupplySpec::Boosted { level } => Value::Object(BTreeMap::from([
            ("kind".to_owned(), Value::String("boosted".to_owned())),
            ("level".to_owned(), num(level as f64)),
        ])),
        SupplySpec::BoostedScheduled {
            level,
            critical_layers,
        } => Value::Object(BTreeMap::from([
            (
                "kind".to_owned(),
                Value::String("boosted_scheduled".to_owned()),
            ),
            ("level".to_owned(), num(level as f64)),
            ("critical_layers".to_owned(), num(critical_layers as f64)),
        ])),
        SupplySpec::Dual { v_h_mv } => Value::Object(BTreeMap::from([
            ("kind".to_owned(), Value::String("dual".to_owned())),
            ("v_h_mv".to_owned(), num(f64::from(v_h_mv))),
        ])),
    };
    Value::Object(BTreeMap::from([
        ("seed".to_owned(), num(spec.seed as f64)),
        ("trials".to_owned(), num(spec.trials as f64)),
        (
            "voltages_mv".to_owned(),
            Value::Array(
                spec.voltages_mv
                    .iter()
                    .map(|&mv| num(f64::from(mv)))
                    .collect(),
            ),
        ),
        (
            "ecc".to_owned(),
            Value::String(
                match spec.ecc {
                    EccMode::None => "none",
                    EccMode::SecDed => "secded",
                }
                .to_owned(),
            ),
        ),
        ("network".to_owned(), network),
        ("supply".to_owned(), supply),
        (
            "fault_model".to_owned(),
            encode_fault_model(spec.fault_model),
        ),
        ("geometry".to_owned(), encode_geometry(spec.geometry)),
    ]))
}

/// Encodes a geometry spec as a value [`decode_geometry`] accepts.
#[must_use]
pub fn encode_geometry(geometry: GeometrySpec) -> Value {
    match geometry {
        GeometrySpec::Calibrated => Value::String("calibrated".to_owned()),
        GeometrySpec::Structural(g) => Value::Object(BTreeMap::from([
            ("rows".to_owned(), Value::Number(g.rows as f64)),
            ("cols".to_owned(), Value::Number(g.cols as f64)),
            ("mux".to_owned(), Value::Number(g.mux as f64)),
            ("banks".to_owned(), Value::Number(g.banks as f64)),
        ])),
    }
}

/// Encodes a fault model as an object [`decode_fault_model`] accepts.
#[must_use]
pub fn encode_fault_model(model: FaultModel) -> Value {
    let num = |n: u32| Value::Number(f64::from(n));
    match model {
        FaultModel::Gaussian {
            mu_mv,
            sigma_mv,
            flip_ppm,
        } => Value::Object(BTreeMap::from([
            ("kind".to_owned(), Value::String("gaussian".to_owned())),
            ("mu_mv".to_owned(), num(mu_mv)),
            ("sigma_mv".to_owned(), num(sigma_mv)),
            ("flip_ppm".to_owned(), num(flip_ppm)),
        ])),
        FaultModel::CorrelatedBurst {
            mu_mv,
            sigma_mv,
            flip_ppm,
            row_weak_ppm,
            col_weak_ppm,
            shift_mv,
        } => Value::Object(BTreeMap::from([
            (
                "kind".to_owned(),
                Value::String("correlated_burst".to_owned()),
            ),
            ("mu_mv".to_owned(), num(mu_mv)),
            ("sigma_mv".to_owned(), num(sigma_mv)),
            ("flip_ppm".to_owned(), num(flip_ppm)),
            ("row_weak_ppm".to_owned(), num(row_weak_ppm)),
            ("col_weak_ppm".to_owned(), num(col_weak_ppm)),
            ("shift_mv".to_owned(), num(shift_mv)),
        ])),
        FaultModel::ChipVariation {
            mu_mv,
            sigma_mv,
            flip_ppm,
            mu_spread_mv,
            sigma_spread_pct,
        } => Value::Object(BTreeMap::from([
            (
                "kind".to_owned(),
                Value::String("chip_variation".to_owned()),
            ),
            ("mu_mv".to_owned(), num(mu_mv)),
            ("sigma_mv".to_owned(), num(sigma_mv)),
            ("flip_ppm".to_owned(), num(flip_ppm)),
            ("mu_spread_mv".to_owned(), num(mu_spread_mv)),
            ("sigma_spread_pct".to_owned(), num(sigma_spread_pct)),
        ])),
    }
}

/// Encodes a fleet spec as a JSON object [`decode_fleet_value`] accepts.
#[must_use]
pub fn encode_fleet_value(spec: &FleetSpec) -> Value {
    Value::Object(BTreeMap::from([
        ("seed".to_owned(), Value::Number(spec.seed as f64)),
        ("dies".to_owned(), Value::Number(spec.dies as f64)),
        (
            "array_bits".to_owned(),
            Value::Number(spec.array_bits as f64),
        ),
        (
            "voltages_mv".to_owned(),
            Value::Array(
                spec.voltages_mv
                    .iter()
                    .map(|&mv| Value::Number(f64::from(mv)))
                    .collect(),
            ),
        ),
        (
            "fault_model".to_owned(),
            encode_fault_model(spec.fault_model),
        ),
        ("geometry".to_owned(), encode_geometry(spec.geometry)),
    ]))
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

/// Reads a `usize` window field (`trial_offset`, `die_count`, ...) from a
/// shard request object.
fn window_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|n| n.fract() == 0.0 && (0.0..=1e12).contains(n))
        .map(|n| n as usize)
        .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
}

/// Encodes a `POST /v1/shard/sweep` request: the full spec plus the trial
/// window `[trial_offset, trial_offset + trial_count)` this shard owns.
#[must_use]
pub fn encode_shard_sweep_request(
    spec: &SweepSpec,
    trial_offset: usize,
    trial_count: usize,
) -> String {
    Value::Object(BTreeMap::from([
        ("spec".to_owned(), encode_spec_value(spec)),
        (
            "trial_offset".to_owned(),
            Value::Number(trial_offset as f64),
        ),
        ("trial_count".to_owned(), Value::Number(trial_count as f64)),
    ]))
    .to_string_compact()
}

/// Decodes a `POST /v1/shard/sweep` body into `(spec, offset, count)`.
///
/// # Errors
///
/// Rejects malformed bodies and windows outside `0..spec.trials`.
pub fn decode_shard_sweep_request(body: &[u8]) -> Result<(SweepSpec, usize, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let spec = decode_spec_value(v.get("spec").ok_or("missing 'spec'")?)?;
    let offset = window_field(&v, "trial_offset")?;
    let count = window_field(&v, "trial_count")?;
    if count == 0 || offset.saturating_add(count) > spec.trials {
        return Err(format!(
            "trial window {offset}+{count} outside 0..{}",
            spec.trials
        ));
    }
    Ok((spec, offset, count))
}

/// Encodes a shard sweep response: for each sweep point, the shard's raw
/// per-trial accuracies as exact bit patterns, in trial order.
#[must_use]
pub fn encode_shard_sweep_response(per_point: &[Vec<f64>]) -> String {
    Value::Object(BTreeMap::from([(
        "points".to_owned(),
        Value::Array(
            per_point
                .iter()
                .map(|trials| {
                    Value::Array(trials.iter().map(|&x| Value::String(f64_hex(x))).collect())
                })
                .collect(),
        ),
    )]))
    .to_string_compact()
}

/// Decodes a shard sweep response back to per-point raw trial accuracies.
///
/// # Errors
///
/// Rejects malformed bodies (including error payloads from the peer).
pub fn decode_shard_sweep_response(body: &[u8]) -> Result<Vec<Vec<f64>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    v.get("points")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing 'points' array".to_owned())?
        .iter()
        .map(|point| {
            point
                .as_array()
                .ok_or_else(|| "'points' entries must be arrays".to_owned())?
                .iter()
                .map(|bits| f64_from_hex(bits.as_str().ok_or("float bits must be strings")?))
                .collect()
        })
        .collect()
}

/// Encodes a `POST /v1/shard/fleet` request: the full spec plus the die
/// window `[die_offset, die_offset + die_count)` this shard owns.
#[must_use]
pub fn encode_shard_fleet_request(spec: &FleetSpec, die_offset: usize, die_count: usize) -> String {
    Value::Object(BTreeMap::from([
        ("spec".to_owned(), encode_fleet_value(spec)),
        ("die_offset".to_owned(), Value::Number(die_offset as f64)),
        ("die_count".to_owned(), Value::Number(die_count as f64)),
    ]))
    .to_string_compact()
}

/// Decodes a `POST /v1/shard/fleet` body into `(spec, offset, count)`.
///
/// # Errors
///
/// Rejects malformed bodies and windows outside `0..spec.dies`.
pub fn decode_shard_fleet_request(body: &[u8]) -> Result<(FleetSpec, usize, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let spec = decode_fleet_value(v.get("spec").ok_or("missing 'spec'")?)?;
    let offset = window_field(&v, "die_offset")?;
    let count = window_field(&v, "die_count")?;
    if count == 0 || offset.saturating_add(count) > spec.dies {
        return Err(format!(
            "die window {offset}+{count} outside 0..{}",
            spec.dies
        ));
    }
    Ok((spec, offset, count))
}

/// Encodes a shard fleet response: the shard's raw per-die outcomes in die
/// order, V_min as an exact bit pattern.
#[must_use]
pub fn encode_shard_fleet_response(dies: &[DieOutcome]) -> String {
    Value::Object(BTreeMap::from([(
        "dies".to_owned(),
        Value::Array(
            dies.iter()
                .map(|die| {
                    Value::Object(BTreeMap::from([
                        ("v_min_bits".to_owned(), Value::String(f64_hex(die.v_min))),
                        ("censored".to_owned(), Value::Bool(die.censored)),
                        (
                            "fault_cells".to_owned(),
                            Value::Number(die.fault_cells as f64),
                        ),
                    ]))
                })
                .collect(),
        ),
    )]))
    .to_string_compact()
}

/// Decodes a shard fleet response back to raw per-die outcomes.
///
/// # Errors
///
/// Rejects malformed bodies (including error payloads from the peer).
pub fn decode_shard_fleet_response(body: &[u8]) -> Result<Vec<DieOutcome>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    v.get("dies")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing 'dies' array".to_owned())?
        .iter()
        .map(|die| {
            let v_min = f64_from_hex(
                die.get("v_min_bits")
                    .and_then(Value::as_str)
                    .ok_or("'v_min_bits' must be a string")?,
            )?;
            let censored = die
                .get("censored")
                .and_then(Value::as_bool)
                .ok_or("'censored' must be a bool")?;
            let fault_cells =
                die.get("fault_cells")
                    .and_then(Value::as_f64)
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .ok_or("'fault_cells' must be a non-negative integer")? as u64;
            Ok(DieOutcome {
                v_min,
                censored,
                fault_cells,
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

/// Renders a fleet progress event line for the streaming endpoint: one
/// `die`/`die_faults` pair per simulated die, bracketed by
/// `fleet_start`/`fleet_done`. Stage timings are elided like in
/// [`event_line`].
#[must_use]
pub fn fleet_event_line(event: &TrialEvent) -> Option<String> {
    let mut obj = BTreeMap::new();
    match event {
        TrialEvent::BatchStart { total } => {
            obj.insert("event".to_owned(), Value::String("fleet_start".to_owned()));
            obj.insert("dies".to_owned(), Value::Number(*total as f64));
        }
        TrialEvent::TrialComplete { index, micros } => {
            obj.insert("event".to_owned(), Value::String("die".to_owned()));
            obj.insert("die".to_owned(), Value::Number(*index as f64));
            obj.insert("micros".to_owned(), Value::Number(*micros as f64));
        }
        TrialEvent::FaultBits { index, bits } => {
            obj.insert("event".to_owned(), Value::String("die_faults".to_owned()));
            obj.insert("die".to_owned(), Value::Number(*index as f64));
            obj.insert("cells".to_owned(), Value::Number(*bits as f64));
        }
        TrialEvent::BatchComplete { micros } => {
            obj.insert("event".to_owned(), Value::String("fleet_done".to_owned()));
            obj.insert("micros".to_owned(), Value::Number(*micros as f64));
        }
        TrialEvent::Annotation { key, value } => {
            obj.insert("event".to_owned(), Value::String("annotation".to_owned()));
            obj.insert("key".to_owned(), Value::String((*key).to_owned()));
            obj.insert("value".to_owned(), Value::Number(*value));
        }
        TrialEvent::Stage { .. } => return None,
    }
    Some(Value::Object(obj).to_string_compact())
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
    let (mut start, mut stop, mut step) = (340u32, 600u32, 20u32);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let int = || -> Result<u64, String> {
            value
                .parse::<u64>()
                .ok()
                .filter(|&n| n <= 1_000_000)
                .ok_or_else(|| {
                    format!("'{key}' must be a small non-negative integer, got {value:?}")
                })
        };
        match key {
            "network" => spec.network = default_network(value)?,
            "floor" => {
                spec.floor = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite())
                    .ok_or_else(|| format!("'floor' must be a number, got {value:?}"))?;
            }
            "trials" => spec.trials = int()? as usize,
            "seed" => {
                spec.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("'seed' must be a non-negative integer, got {value:?}"))?;
            }
            "level" => spec.level = int()? as usize,
            "start_mv" => start = int()? as u32,
            "stop_mv" => stop = int()? as u32,
            "step_mv" => step = int()? as u32,
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    if step == 0 || stop < start {
        return Err("grid needs step_mv >= 1 and stop_mv >= start_mv".to_owned());
    }
    spec.voltages_mv = (start..=stop).step_by(step as usize).collect();
    spec.validate()?;
    Ok(spec)
}

/// The shared body of an iso-accuracy result rendering: everything except
/// the `spec` key. Both `/v1/iso-accuracy` responses and the baseline /
/// hardened sub-objects of `/v1/retrain` responses are built from exactly
/// these entries, so the two endpoints render a solve identically.
fn iso_result_entries(result: &IsoAccuracyResult) -> BTreeMap<String, Value> {
    let config = |point: &Option<IsoConfigPoint>| -> Value {
        match point {
            None => Value::Null,
            Some(p) => Value::Object(BTreeMap::from([
                (
                    "v_logic_mv".to_owned(),
                    Value::Number(p.v_logic.millivolts()),
                ),
                ("v_sram_mv".to_owned(), Value::Number(p.v_sram.millivolts())),
                ("accuracy".to_owned(), Value::Number(p.accuracy_mean)),
                (
                    "dynamic_sram_j".to_owned(),
                    Value::Number(p.energy.dynamic.sram.joules()),
                ),
                (
                    "dynamic_logic_j".to_owned(),
                    Value::Number(p.energy.dynamic.logic.joules()),
                ),
                (
                    "dynamic_booster_j".to_owned(),
                    Value::Number(p.energy.dynamic.booster.joules()),
                ),
                (
                    "dynamic_total_j".to_owned(),
                    Value::Number(p.energy.dynamic.total().joules()),
                ),
                (
                    "dynamic_total_norm0v5".to_owned(),
                    Value::Number(p.energy.normalized_total()),
                ),
                (
                    "leakage_per_cycle_j".to_owned(),
                    Value::Number(p.energy.leakage_per_cycle.joules()),
                ),
            ])),
        }
    };
    let ratio = |r: &Option<f64>| r.map_or(Value::Null, Value::Number);
    BTreeMap::from([
        (
            "clean_accuracy".to_owned(),
            Value::Number(result.clean_accuracy),
        ),
        (
            "target_accuracy".to_owned(),
            Value::Number(result.target_accuracy),
        ),
        ("single".to_owned(), config(&result.single)),
        ("boosted".to_owned(), config(&result.boosted)),
        ("dual".to_owned(), config(&result.dual)),
        (
            "boosted_over_single".to_owned(),
            ratio(&result.boosted_over_single),
        ),
        (
            "boosted_over_dual".to_owned(),
            ratio(&result.boosted_over_dual),
        ),
    ])
}

/// Renders an iso-accuracy solve as a compact JSON object (deterministic:
/// `BTreeMap` key order, same float formatter as every other endpoint).
#[must_use]
pub fn render_iso(spec: &IsoAccuracySpec, result: &IsoAccuracyResult) -> String {
    let mut obj = iso_result_entries(result);
    obj.insert("spec".to_owned(), Value::String(spec.canonical_string()));
    Value::Object(obj).to_string_compact()
}

/// Renders a `/v1/retrain` response: the spec's canonical string, the
/// hardened weights' digest, the per-epoch training telemetry, the
/// baseline and hardened iso-accuracy solves (same rendering as
/// `/v1/iso-accuracy`), and the headline `V_min` gap / energy-ratio
/// summary. Deterministic like every other endpoint — `BTreeMap` key
/// order, shared float formatter.
#[must_use]
pub fn render_retrain(spec: &RetrainSpec, hardened: &HardenedNetwork) -> String {
    let opt = |r: Option<f64>| r.map_or(Value::Null, Value::Number);
    let epochs = hardened
        .epochs
        .iter()
        .map(|e| {
            Value::Object(BTreeMap::from([
                ("epoch".to_owned(), Value::Number(e.epoch as f64)),
                ("loss".to_owned(), Value::Number(f64::from(e.loss))),
                ("clean_accuracy".to_owned(), Value::Number(e.clean_accuracy)),
                (
                    "faulty_accuracy".to_owned(),
                    Value::Number(e.faulty_accuracy),
                ),
            ]))
        })
        .collect();
    Value::Object(BTreeMap::from([
        ("spec".to_owned(), Value::String(spec.canonical_string())),
        (
            "weight_digest".to_owned(),
            Value::String(format!("{:016x}", hardened.weight_digest())),
        ),
        ("epochs".to_owned(), Value::Array(epochs)),
        (
            "baseline".to_owned(),
            Value::Object(iso_result_entries(&hardened.baseline)),
        ),
        (
            "hardened".to_owned(),
            Value::Object(iso_result_entries(&hardened.hardened)),
        ),
        (
            "vmin_gap_mv".to_owned(),
            Value::Object(BTreeMap::from([
                ("single".to_owned(), opt(hardened.single_vmin_gap_mv())),
                ("boosted".to_owned(), opt(hardened.boosted_vmin_gap_mv())),
            ])),
        ),
        (
            "energy_ratio".to_owned(),
            Value::Object(BTreeMap::from([
                ("single".to_owned(), opt(hardened.single_energy_ratio())),
                ("boosted".to_owned(), opt(hardened.boosted_energy_ratio())),
                ("dual".to_owned(), opt(hardened.dual_energy_ratio())),
            ])),
        ),
    ]))
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
    let obj = match *event {
        RetrainEvent::EpochStart { epoch } => BTreeMap::from([
            ("event".to_owned(), Value::String("epoch_start".to_owned())),
            ("epoch".to_owned(), Value::Number(epoch as f64)),
        ]),
        RetrainEvent::EpochDone {
            epoch,
            loss,
            clean_accuracy,
            faulty_accuracy,
        } => BTreeMap::from([
            ("event".to_owned(), Value::String("epoch_done".to_owned())),
            ("epoch".to_owned(), Value::Number(epoch as f64)),
            ("loss".to_owned(), Value::Number(f64::from(loss))),
            ("clean_accuracy".to_owned(), Value::Number(clean_accuracy)),
            ("faulty_accuracy".to_owned(), Value::Number(faulty_accuracy)),
        ]),
    };
    Value::Object(obj).to_string_compact()
}

/// Renders one key/value error payload, e.g. `{"error": "..."}`.
#[must_use]
pub fn error_body(message: &str) -> String {
    Value::Object(BTreeMap::from([(
        "error".to_owned(),
        Value::String(message.to_owned()),
    )]))
    .to_string_compact()
}

/// Renders a progress event line for the streaming endpoint. Returns
/// `None` for hook calls the stream intentionally elides (per-trial stage
/// timings — two extra events per trial with little client value).
#[must_use]
pub fn event_line(point: usize, mv: u32, event: &TrialEvent) -> Option<String> {
    let mut obj = BTreeMap::from([
        ("point".to_owned(), Value::Number(point as f64)),
        ("mv".to_owned(), Value::Number(f64::from(mv))),
    ]);
    match event {
        TrialEvent::BatchStart { total } => {
            obj.insert("event".to_owned(), Value::String("point_start".to_owned()));
            obj.insert("trials".to_owned(), Value::Number(*total as f64));
        }
        TrialEvent::TrialComplete { index, micros } => {
            obj.insert("event".to_owned(), Value::String("trial".to_owned()));
            obj.insert("trial".to_owned(), Value::Number(*index as f64));
            obj.insert("micros".to_owned(), Value::Number(*micros as f64));
        }
        TrialEvent::FaultBits { index, bits } => {
            obj.insert("event".to_owned(), Value::String("fault_bits".to_owned()));
            obj.insert("trial".to_owned(), Value::Number(*index as f64));
            obj.insert("bits".to_owned(), Value::Number(*bits as f64));
        }
        TrialEvent::BatchComplete { micros } => {
            obj.insert("event".to_owned(), Value::String("point_done".to_owned()));
            obj.insert("micros".to_owned(), Value::Number(*micros as f64));
        }
        TrialEvent::Annotation { key, value } => {
            obj.insert("event".to_owned(), Value::String("annotation".to_owned()));
            obj.insert("key".to_owned(), Value::String((*key).to_owned()));
            obj.insert("value".to_owned(), Value::Number(*value));
        }
        TrialEvent::Stage { .. } => return None,
    }
    Some(Value::Object(obj).to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(spec.canonical_string().starts_with("dante.sweep.v4;"));
        // "calibrated" and omission both select the default (legacy keys).
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
        // Fleet bodies accept the same field.
        let fleet = decode_fleet_spec(
            br#"{"dies": 64, "array_bits": 65536, "voltages_mv": [520, 560],
                 "geometry": {"rows": 256, "cols": 128, "mux": 4, "banks": 1}}"#,
        )
        .unwrap();
        assert!(fleet.canonical_string().starts_with("dante.fleet.v2;"));
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
        let cases: [(&[u8], &str); 13] = [
            (b"{", "parse error"),
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

    #[test]
    fn event_lines_are_compact_json() {
        let line = event_line(
            1,
            440,
            &TrialEvent::TrialComplete {
                index: 3,
                micros: 17,
            },
        )
        .unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("trial"));
        assert_eq!(v.get("trial").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("mv").and_then(Value::as_f64), Some(440.0));
        let line = event_line(
            0,
            400,
            &TrialEvent::Annotation {
                key: "dynamic_energy_j",
                value: 1.5e-6,
            },
        )
        .unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("annotation"));
        assert_eq!(
            v.get("key").and_then(Value::as_str),
            Some("dynamic_energy_j")
        );
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(1.5e-6));
        assert!(event_line(
            0,
            400,
            &TrialEvent::Stage {
                stage: "corrupt",
                micros: 1
            }
        )
        .is_none());
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
        let line = fleet_event_line(&TrialEvent::TrialComplete {
            index: 7,
            micros: 11,
        })
        .unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("die"));
        assert_eq!(v.get("die").and_then(Value::as_f64), Some(7.0));
        let line = fleet_event_line(&TrialEvent::FaultBits { index: 7, bits: 3 }).unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("die_faults"));
        assert_eq!(v.get("cells").and_then(Value::as_f64), Some(3.0));
        assert!(fleet_event_line(&TrialEvent::Stage {
            stage: "sample",
            micros: 1
        })
        .is_none());
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
    fn spec_encoders_round_trip_through_the_decoders() {
        let spec = SweepSpec {
            seed: 97,
            trials: 3,
            voltages_mv: vec![400, 440],
            ecc: EccMode::SecDed,
            network: NetworkSpec::MnistFc {
                train_n: 100,
                test_n: 50,
                epochs: 2,
            },
            supply: SupplySpec::Dual { v_h_mv: 600 },
            fault_model: FaultModel::burst_default(),
            geometry: GeometrySpec::Structural(MacroGeometry::bank_64kbit()),
        };
        let body = encode_spec_value(&spec).to_string_compact();
        let decoded = decode_spec(body.as_bytes()).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(
            decoded.canonical_string(),
            spec.canonical_string(),
            "wire round-trip must preserve the cache key"
        );
        let fleet = decode_fleet_spec(
            br#"{"seed": 9, "dies": 64, "array_bits": 65536,
                 "voltages_mv": [520, 560, 600],
                 "fault_model": "chip_variation"}"#,
        )
        .unwrap();
        let body = encode_fleet_value(&fleet).to_string_compact();
        let decoded = decode_fleet_spec(body.as_bytes()).unwrap();
        assert_eq!(decoded, fleet);
        assert_eq!(decoded.canonical_string(), fleet.canonical_string());
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
                assert!(err.contains("sparse-tail sampler is the only"), "{err}");
            }
        }
        // Shard legs encode no sampling key, so their bodies still decode.
        let spec = SweepSpec::toy_default();
        let encoded = encode_spec_value(&spec);
        assert!(encoded.get("sampling").is_none());
        assert_eq!(decode_spec_value(&encoded).unwrap(), spec);
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
        let body = encode_shard_sweep_request(&spec, 2, 3);
        let (decoded, offset, count) = decode_shard_sweep_request(body.as_bytes()).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!((offset, count), (2, 3));
        // Window past the trial count is rejected.
        let bad = encode_shard_sweep_request(&spec, 3, 3);
        assert!(decode_shard_sweep_request(bad.as_bytes())
            .unwrap_err()
            .contains("window"));
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
        let spec = decode_fleet_spec(br#"{"dies": 7, "array_bits": 16384}"#).unwrap();
        let body = encode_shard_fleet_request(&spec, 3, 4);
        let (decoded, offset, count) = decode_shard_fleet_request(body.as_bytes()).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!((offset, count), (3, 4));
        let bad = encode_shard_fleet_request(&spec, 4, 4);
        assert!(decode_shard_fleet_request(bad.as_bytes())
            .unwrap_err()
            .contains("window"));
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

        let cases: [(&[u8], &str); 7] = [
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
