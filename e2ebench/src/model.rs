//! Seeded inputs and the plaintext oracle.
//!
//! Everything the system under test receives — table rows and the op
//! stream — comes from here, derived from the workload seed. The
//! [`Model`] is each client's plaintext copy of its table: op results are
//! checked against it outside the timed interval, and an `update` changes
//! it only after the providers acknowledged the write.

use dasp_client::source::DecodedRow;
use dasp_client::{AggResult, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Domain of the `key` column (keys are `0..rows`).
pub const KEY_DOMAIN: u64 = 1 << 20;
/// Domain of the order-preserving `salary` column.
pub const SALARY_DOMAIN: u64 = 1 << 20;
/// Domain of the random-mode `ssn` column.
pub const SSN_DOMAIN: u64 = 1_000_000_000;
/// Width of the `name` text column.
pub const NAME_WIDTH: usize = 8;
/// Salary range a `sum` aggregates: a quarter of the domain.
pub const SUM_WIDTH: u64 = 1 << 18;
/// Rows a `scan` returns on average.
pub const SCAN_ROWS: u64 = 500;

/// The op kinds a workload issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `select(key = x)`: one row.
    Point,
    /// `select(salary BETWEEN lo AND lo + w)`: ~[`SCAN_ROWS`] rows.
    Scan,
    /// `sum(salary, salary BETWEEN lo AND lo + 2^18)`.
    Sum,
    /// `update_where(key = x, salary := v)`, eager.
    Update,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [Kind::Point, Kind::Scan, Kind::Sum, Kind::Update];

    /// The name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Scan => "scan",
            Kind::Sum => "sum",
            Kind::Update => "update",
        }
    }
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Exact-match lookup of one key.
    Point { key: u64 },
    /// Salary range select, inclusive bounds.
    Scan { lo: u64, hi: u64 },
    /// Salary range sum, inclusive bounds.
    Sum { lo: u64, hi: u64 },
    /// Set one row's salary.
    Update { key: u64, salary: u64 },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Point { .. } => Kind::Point,
            Op::Scan { .. } => Kind::Scan,
            Op::Sum { .. } => Kind::Sum,
            Op::Update { .. } => Kind::Update,
        }
    }
}

/// One plaintext row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub key: u64,
    pub salary: u64,
    pub name: String,
    pub ssn: u64,
}

impl Row {
    /// The row as the client API takes and returns it, in column order.
    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.key),
            Value::Int(self.salary),
            Value::Str(self.name.clone()),
            Value::Int(self.ssn),
        ]
    }
}

/// `rows` rows with keys `0..rows` and uniform salaries, names and ssns.
pub fn gen_rows(seed: u64, rows: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|key| {
            let len = rng.gen_range(1..=NAME_WIDTH);
            let name = (0..len)
                .map(|_| char::from(b'A' + rng.gen_range(0u8..26)))
                .collect();
            Row {
                key,
                salary: rng.gen_range(0..SALARY_DOMAIN),
                name,
                ssn: rng.gen_range(0..SSN_DOMAIN),
            }
        })
        .collect()
}

/// A closed-loop client's op stream: the kinds in strict rotation (so a
/// mix is exactly equal shares), keys and bounds uniform.
pub struct OpGen {
    rng: StdRng,
    kinds: Vec<Kind>,
    next: usize,
    rows: u64,
}

impl OpGen {
    /// A stream over a table of `rows` rows cycling through `kinds`.
    pub fn new(seed: u64, kinds: &[Kind], rows: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let next = rng.gen_range(0..kinds.len().max(1));
        OpGen {
            rng,
            kinds: kinds.to_vec(),
            next,
            rows,
        }
    }

    /// The salary width a scan covers so it returns ~[`SCAN_ROWS`] rows
    /// (at most a quarter of the domain, for small test tables).
    pub fn scan_width(rows: u64) -> u64 {
        (SALARY_DOMAIN * SCAN_ROWS / rows.max(1)).clamp(1, SALARY_DOMAIN / 4)
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = *self.kinds.get(self.next)?;
        self.next = (self.next + 1) % self.kinds.len();
        let rows = self.rows;
        Some(match kind {
            Kind::Point => Op::Point {
                key: self.rng.gen_range(0..rows),
            },
            Kind::Scan => {
                let w = Self::scan_width(rows);
                let lo = self.rng.gen_range(0..SALARY_DOMAIN - w);
                Op::Scan { lo, hi: lo + w }
            }
            Kind::Sum => {
                let lo = self.rng.gen_range(0..SALARY_DOMAIN - SUM_WIDTH);
                Op::Sum {
                    lo,
                    hi: lo + SUM_WIDTH,
                }
            }
            Kind::Update => Op::Update {
                key: self.rng.gen_range(0..rows),
                salary: self.rng.gen_range(0..SALARY_DOMAIN),
            },
        })
    }
}

/// What an op returned.
#[derive(Debug)]
pub enum Outcome {
    /// Rows of a point or scan select.
    Rows(Vec<DecodedRow>),
    /// A sum.
    Agg(AggResult),
    /// Rows an update touched.
    Updated(usize),
}

/// The plaintext oracle for one client's table.
pub struct Model {
    /// Rows indexed by key.
    rows: Vec<Row>,
    /// (salary, key) for range answers.
    by_salary: BTreeSet<(u64, u64)>,
}

impl Model {
    /// The model of a freshly loaded table.
    pub fn new(rows: Vec<Row>) -> Self {
        let by_salary = rows.iter().map(|r| (r.salary, r.key)).collect();
        Model { rows, by_salary }
    }

    /// Every row, in key order.
    #[cfg(test)]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = &(u64, u64)> {
        self.by_salary.range((lo, 0)..=(hi, u64::MAX))
    }

    /// Record an acknowledged salary update.
    pub fn set_salary(&mut self, key: u64, salary: u64) {
        let Some(row) = usize::try_from(key).ok().and_then(|k| self.rows.get_mut(k)) else {
            return;
        };
        self.by_salary.remove(&(row.salary, key));
        row.salary = salary;
        self.by_salary.insert((salary, key));
    }

    /// Does `out` match what `op` must return? Returns a description of
    /// the first mismatch. An acknowledged update is applied to the model.
    pub fn check(&mut self, op: &Op, out: &Outcome) -> Result<(), String> {
        match (op, out) {
            (Op::Point { key }, Outcome::Rows(rows)) => {
                let want = usize::try_from(*key)
                    .ok()
                    .and_then(|k| self.rows.get(k))
                    .map(Row::values);
                match (rows.as_slice(), want) {
                    ([(_, got)], Some(want)) if *got == want => Ok(()),
                    _ => Err(format!("point {key}: got {rows:?}")),
                }
            }
            (Op::Scan { lo, hi }, Outcome::Rows(rows)) => {
                let want: Vec<Vec<Value>> = self
                    .range(*lo, *hi)
                    .map(|&(_, k)| self.rows[k as usize].values())
                    .collect();
                let mut got: Vec<Vec<Value>> = rows.iter().map(|(_, v)| v.clone()).collect();
                got.sort_by_key(|v| match v.get(1).zip(v.first()) {
                    Some((&Value::Int(s), &Value::Int(k))) => (s, k),
                    _ => (u64::MAX, u64::MAX),
                });
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "scan [{lo}, {hi}]: got {} rows, want {}",
                        got.len(),
                        want.len()
                    ))
                }
            }
            (Op::Sum { lo, hi }, Outcome::Agg(agg)) => {
                let (sum, count) = self
                    .range(*lo, *hi)
                    .fold((0u64, 0u64), |(s, c), &(salary, _)| (s + salary, c + 1));
                let value_ok = match &agg.value {
                    Some(Value::Int(v)) => *v == sum,
                    None => count == 0,
                    Some(_) => false,
                };
                if value_ok && agg.count == count {
                    Ok(())
                } else {
                    Err(format!(
                        "sum [{lo}, {hi}]: got {:?} over {}, want {sum} over {count}",
                        agg.value, agg.count
                    ))
                }
            }
            (Op::Update { key, salary }, Outcome::Updated(n)) => {
                if *n == 1 {
                    self.set_salary(*key, *salary);
                    Ok(())
                } else {
                    Err(format!("update {key}: touched {n} rows"))
                }
            }
            (op, out) => Err(format!("{op:?} produced {out:?}")),
        }
    }

    /// Compare a full-table read-back with the model.
    pub fn check_table(&self, rows: &[DecodedRow]) -> Result<(), String> {
        let mut got: Vec<&Vec<Value>> = rows.iter().map(|(_, v)| v).collect();
        got.sort_by_key(|v| match v.first() {
            Some(&Value::Int(k)) => k,
            _ => u64::MAX,
        });
        let bad = self
            .rows
            .iter()
            .zip(&got)
            .filter(|(want, got)| want.values() != ***got)
            .count();
        if got.len() == self.rows.len() && bad == 0 {
            Ok(())
        } else {
            Err(format!(
                "read-back: {} rows (want {}), {bad} differ",
                got.len(),
                self.rows.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_ops_repeat_for_a_seed() {
        assert_eq!(gen_rows(7, 50), gen_rows(7, 50));
        assert_ne!(gen_rows(7, 50), gen_rows(8, 50));
        let a: Vec<Op> = OpGen::new(3, &[Kind::Point, Kind::Sum], 100)
            .take(20)
            .collect();
        let b: Vec<Op> = OpGen::new(3, &[Kind::Point, Kind::Sum], 100)
            .take(20)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_rotates_kinds_in_equal_shares() {
        let kinds = [Kind::Point, Kind::Scan, Kind::Sum];
        let ops: Vec<Kind> = OpGen::new(1, &kinds, 100)
            .take(300)
            .map(|o| o.kind())
            .collect();
        for k in kinds {
            assert_eq!(ops.iter().filter(|&&o| o == k).count(), 100);
        }
    }

    #[test]
    fn oracle_accepts_truth_and_rejects_a_wrong_row() {
        let rows = gen_rows(5, 200);
        let mut model = Model::new(rows.clone());
        let lo = 0;
        let hi = SALARY_DOMAIN / 2;
        let truth: Vec<DecodedRow> = rows
            .iter()
            .filter(|r| (lo..=hi).contains(&r.salary))
            .map(|r| (r.key, r.values()))
            .collect();
        let op = Op::Scan { lo, hi };
        assert!(model.check(&op, &Outcome::Rows(truth.clone())).is_ok());
        let mut wrong = truth;
        wrong.pop();
        assert!(model.check(&op, &Outcome::Rows(wrong)).is_err());

        let sum: u64 = rows
            .iter()
            .filter(|r| r.salary <= hi)
            .map(|r| r.salary)
            .sum();
        let count = rows.iter().filter(|r| r.salary <= hi).count() as u64;
        let good = AggResult {
            value: Some(Value::Int(sum)),
            count,
        };
        assert!(model
            .check(&Op::Sum { lo, hi }, &Outcome::Agg(good))
            .is_ok());
        let off = AggResult {
            value: Some(Value::Int(sum + 1)),
            count,
        };
        assert!(model
            .check(&Op::Sum { lo, hi }, &Outcome::Agg(off))
            .is_err());
    }

    #[test]
    fn model_changes_only_on_an_acknowledged_update() {
        let mut model = Model::new(gen_rows(9, 10));
        let op = Op::Update { key: 3, salary: 77 };
        assert!(model.check(&op, &Outcome::Updated(0)).is_err());
        assert_ne!(model.rows()[3].salary, 77);
        assert!(model.check(&op, &Outcome::Updated(1)).is_ok());
        assert_eq!(model.rows()[3].salary, 77);
        let point = Op::Point { key: 3 };
        let row = (3, model.rows()[3].values());
        assert!(model.check(&point, &Outcome::Rows(vec![row])).is_ok());
    }
}
