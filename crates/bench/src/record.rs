//! Experiment records: a uniform shape for every regenerated table/figure,
//! printable as aligned text and serializable to JSON for EXPERIMENTS.md
//! bookkeeping.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One named data series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (legend entry).
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }
}

/// A regenerated figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRecord {
    /// Identifier, e.g. `"fig13"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Free-form notes (comparisons against the paper, caveats).
    pub notes: Vec<String>,
}

impl FigureRecord {
    /// Creates a record.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a note (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the record as an aligned text table (x column followed by
    /// one column per series).
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if self.series.is_empty() {
            return out;
        }
        // Collect the union of x values in first-series order, then extras.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&e| (e - x).abs() < 1e-12) {
                    xs.push(x);
                }
            }
        }
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>18}", truncate(&s.name, 18));
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x:>12.4}");
            for s in &self.series {
                match s.points.iter().find(|(px, _)| (px - x).abs() < 1e-12) {
                    // Six decimals would print a leakage energy (~1e-11 J)
                    // or a deep BER tail as 0.000000.
                    Some(&(_, y)) if y != 0.0 && y.abs() < 1e-3 => {
                        let _ = write!(out, " {y:>18.6e}");
                    }
                    Some(&(_, y)) => {
                        let _ = write!(out, " {y:>18.6}");
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Prints the table to stdout and, when `DANTE_RESULTS` is set, writes
    /// `{id}.json` and `{id}.txt` (the printed text) into that directory.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the path when the directory cannot be
    /// created or a file cannot be written, so a regeneration never exits 0
    /// with a stale `{id}.json` or `{id}.txt` left in place.
    pub fn emit(&self) {
        let text = format!("{}\n", self.to_table());
        print!("{text}");
        if let Some(dir) = std::env::var_os("DANTE_RESULTS") {
            if let Err(why) = self.write_into(Path::new(&dir), &text) {
                panic!("{why}");
            }
        }
    }

    /// Writes `{id}.json` and `{id}.txt` holding `text` into `dir`,
    /// creating the directory first.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory or the file that could not be
    /// created or written.
    fn write_into(&self, dir: &Path, text: &str) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
        for (ext, contents) in [("json", self.to_json_pretty().as_str()), ("txt", text)] {
            let path = dir.join(format!("{}.{ext}", self.id));
            std::fs::write(&path, contents)
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Serializes the record as pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Parses a record from the JSON produced by [`Self::to_json_pretty`].
    ///
    /// # Errors
    ///
    /// Returns an error string on malformed JSON or a missing/mistyped
    /// field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let series = v
            .get("series")
            .and_then(Value::as_array)
            .ok_or("missing array field 'series'")?
            .iter()
            .map(|s| {
                let name = s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("series missing 'name'")?;
                let points = s
                    .get("points")
                    .and_then(Value::as_array)
                    .ok_or("series missing 'points'")?
                    .iter()
                    .map(|p| match p.as_array() {
                        Some([x, y]) => x
                            .as_f64()
                            .zip(y.as_f64())
                            .ok_or_else(|| "non-numeric point".to_owned()),
                        _ => Err("point is not a 2-element array".to_owned()),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Series::new(name, points))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let notes = v
            .get("notes")
            .and_then(Value::as_array)
            .ok_or("missing array field 'notes'")?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_owned)
                    .ok_or("non-string note".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            id: str_field("id")?,
            title: str_field("title")?,
            x_label: str_field("x_label")?,
            y_label: str_field("y_label")?,
            series,
            notes,
        })
    }

    fn to_json_value(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|&(x, y)| Value::Array(vec![Value::Number(x), Value::Number(y)]))
                    .collect();
                Value::Object(BTreeMap::from([
                    ("name".to_owned(), Value::String(s.name.clone())),
                    ("points".to_owned(), Value::Array(points)),
                ]))
            })
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|n| Value::String(n.clone()))
            .collect();
        Value::Object(BTreeMap::from([
            ("id".to_owned(), Value::String(self.id.clone())),
            ("title".to_owned(), Value::String(self.title.clone())),
            ("x_label".to_owned(), Value::String(self.x_label.clone())),
            ("y_label".to_owned(), Value::String(self.y_label.clone())),
            ("series".to_owned(), Value::Array(series)),
            ("notes".to_owned(), Value::Array(notes)),
        ]))
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Experiment sizing knobs, read from the environment so the same harness
/// scales from smoke test to paper fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Monte-Carlo fault dies per point (paper: 100).
    pub trials: usize,
    /// Test images per accuracy evaluation (paper: 5000).
    pub test_images: usize,
    /// Training epochs for the cached models.
    pub epochs: usize,
    /// Training images for the cached models.
    pub train_images: usize,
}

impl RunScale {
    /// Reads `DANTE_TRIALS`, `DANTE_TEST_N`, `DANTE_EPOCHS` and
    /// `DANTE_TRAIN_N`; `DANTE_FULL=1` selects paper-fidelity defaults,
    /// otherwise fast defaults are used (10 dies x 400 images).
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when one of the four is
    /// set to anything but a positive integer: the same strict rule as
    /// `DANTE_THREADS`, so a mistyped knob stops the run before any work
    /// instead of silently running the default scale.
    #[must_use]
    pub fn from_env() -> Self {
        let lookup = |key: &str| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
        match Self::from_lookup(lookup) {
            Ok(scale) => scale,
            Err(why) => panic!("{why}"),
        }
    }

    /// [`Self::from_env`] over any variable lookup.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable and its value when a set
    /// value is not a positive integer.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let full = lookup("DANTE_FULL").is_some_and(|v| v == "1");
        let get = |key: &str, fast: usize, paper: usize| match lookup(key) {
            None => Ok(if full { paper } else { fast }),
            Some(raw) => raw
                .trim()
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{key} must be a positive integer, got {raw:?}")),
        };
        Ok(Self {
            trials: get("DANTE_TRIALS", 10, 100)?,
            test_images: get("DANTE_TEST_N", 400, 5000)?,
            epochs: get("DANTE_EPOCHS", 4, 6)?,
            train_images: get("DANTE_TRAIN_N", 5000, 5000)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_series() {
        let rec = FigureRecord::new("figX", "test", "V", "acc")
            .with_series(Series::new("a", vec![(0.4, 1.0), (0.5, 2.0), (0.6, 0.0)]))
            .with_series(Series::new("b", vec![(0.4, 3.0), (0.6, 1.25e-11)]))
            .with_series(Series::new("c", vec![(0.6, -4.5e-4)]))
            .with_note("hello");
        let t = rec.to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("note: hello"));
        assert!(t.lines().count() >= 6);
        // Missing point renders as '-'.
        assert!(t.contains('-'));
        // Small non-zero values switch to scientific notation in the same
        // 18-wide column; zero stays fixed-point.
        let row = t
            .lines()
            .find(|l| l.trim_start().starts_with("0.6000"))
            .expect("0.6 V row");
        assert_eq!(
            row,
            format!(
                "{:>12} {:>18} {:>18} {:>18}",
                "0.6000", "0.000000", "1.250000e-11", "-4.500000e-4"
            )
        );
        let header = t.lines().nth(1).expect("header row");
        assert_eq!(row.len(), header.len(), "columns stay aligned");
    }

    #[test]
    fn json_round_trips() {
        let rec = FigureRecord::new("fig1", "t", "x", "y")
            .with_series(Series::new("s", vec![(1.0, 2.0)]))
            .with_note("a \"quoted\" note");
        let json = rec.to_json_pretty();
        let back = FigureRecord::from_json(&json).unwrap();
        assert_eq!(rec, back);
    }

    /// A lookup over fixed `(variable, value)` pairs.
    fn vars(pairs: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |key| {
            pairs
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, v)| v.to_owned())
        }
    }

    #[test]
    fn run_scale_defaults_are_fast() {
        let s = RunScale::from_lookup(vars(&[])).unwrap();
        assert!(s.trials <= 20);
        assert!(s.test_images <= 1000);
        let full = RunScale::from_lookup(vars(&[("DANTE_FULL", "1")])).unwrap();
        assert_eq!((full.trials, full.test_images), (100, 5000));
        let set = RunScale::from_lookup(vars(&[("DANTE_FULL", "1"), ("DANTE_TRIALS", " 3 ")]));
        assert_eq!(set.unwrap().trials, 3);
    }

    #[test]
    fn run_scale_rejects_values_that_are_not_positive_integers() {
        for key in [
            "DANTE_TRIALS",
            "DANTE_TEST_N",
            "DANTE_EPOCHS",
            "DANTE_TRAIN_N",
        ] {
            for value in ["lots", "0", "-2", "1.5", ""] {
                let lookup = |k: &str| (k == key).then(|| value.to_owned());
                let err = RunScale::from_lookup(lookup).unwrap_err();
                assert!(
                    err.contains(key) && err.contains(&format!("{value:?}")),
                    "{key}={value:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn write_into_names_the_path_it_could_not_write() {
        let rec = FigureRecord::new("figW", "t", "x", "y").with_series(Series::new("s", vec![]));
        let text = format!("{}\n", rec.to_table());
        let dir = std::env::temp_dir().join(format!("dante-record-{}", std::process::id()));
        let nested = dir.join("nested");
        rec.write_into(&nested, &text).unwrap();
        let json = nested.join("figW.json");
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            rec.to_json_pretty()
        );
        assert_eq!(
            std::fs::read_to_string(nested.join("figW.txt")).unwrap(),
            text
        );
        // A directory under a regular file cannot be created.
        let under_file = json.join("results");
        let err = rec.write_into(&under_file, &text).unwrap_err();
        assert!(err.contains(&under_file.display().to_string()), "{err}");
        // A directory in either file's place cannot be written.
        for file in ["figW.json", "figW.txt"] {
            let blocked = dir.join(format!("blocked-{file}"));
            std::fs::create_dir_all(blocked.join(file)).unwrap();
            let err = rec.write_into(&blocked, &text).unwrap_err();
            assert!(
                err.contains(&blocked.join(file).display().to_string()),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
