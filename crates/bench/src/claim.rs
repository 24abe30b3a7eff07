//! Typed claim rows: what an experiment asserts about the numbers it
//! prints, checked by value instead of read off the rendered text.

use crate::table::Table;
use std::fmt;

/// How a claim's measured value must relate to its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `measured <= bound`.
    AtMost,
    /// `measured >= bound`.
    AtLeast,
    /// `measured > bound`.
    MoreThan,
    /// `measured == bound`; a yes / no check is `true` (1.0) against `true`.
    Exactly,
}

/// One checked statement of the paper about one instance: the row a
/// failing run names.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// The paper statement, e.g. `"Thm 1.2 congestion ≤ 8δ̂D·sweeps"`;
    /// `(pinned)` marks a constant fixed at the observed maximum plus
    /// headroom where the paper gives only `Õ(·)`.
    pub id: &'static str,
    /// The table row it is about.
    pub instance: String,
    /// The measured value.
    pub measured: f64,
    /// How `measured` must relate to `bound`.
    pub relation: Relation,
    /// The analytic or pinned bound.
    pub bound: f64,
}

impl Claim {
    /// Whether the measured value satisfies the claim, and the relation's
    /// symbol.
    fn compare(&self) -> (bool, &'static str) {
        let (measured, bound) = (self.measured, self.bound);
        match self.relation {
            Relation::AtMost => (measured <= bound, "≤"),
            Relation::AtLeast => (measured >= bound, "≥"),
            Relation::MoreThan => (measured > bound, ">"),
            Relation::Exactly => (measured == bound, "="),
        }
    }

    /// Whether the measured value satisfies the claim.
    pub fn holds(&self) -> bool {
        self.compare().0
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (id, row, measured, bound) = (self.id, &self.instance, self.measured, self.bound);
        write!(f, "{id} [{row}]: {measured} {} {bound}", self.compare().1)
    }
}

/// What one experiment produced: its tables and the claims it makes about
/// them.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Every claim made, violated or not.
    pub claims: Vec<Claim>,
}

impl Report {
    /// Starts the next table; see [`Table::new`].
    pub fn table(&mut self, title: &str, header: &str) {
        self.tables.push(Table::new(title, header));
    }

    /// Appends a row to the table last started; see [`Table::row`].
    pub fn row(&mut self, cells: &[&dyn fmt::Display]) {
        let table = self.tables.last_mut().expect("a row follows its table");
        table.row(cells);
    }

    /// Records one claim about the instance `row` names.
    pub fn claim(
        &mut self,
        row: &str,
        id: &'static str,
        measured: impl Into<f64>,
        relation: Relation,
        bound: impl Into<f64>,
    ) {
        let (instance, measured, bound) = (row.to_string(), measured.into(), bound.into());
        self.claims.push(Claim {
            id,
            instance,
            measured,
            relation,
            bound,
        });
    }

    /// The `yes` / `NO` cell of `row`: `yes` iff every claim recorded about
    /// it so far holds.
    pub fn cell(&self, row: &str) -> &'static str {
        let mut about_row = self.claims.iter().filter(|c| c.instance == row);
        match about_row.all(Claim::holds) {
            true => "yes",
            false => "NO",
        }
    }

    /// The claims that do not hold: the rows a failing run names.
    pub fn violated(&self) -> Vec<&Claim> {
        self.claims.iter().filter(|c| !c.holds()).collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables: Vec<String> = self.tables.iter().map(Table::render).collect();
        f.write_str(&tables.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::Relation::*;
    use super::*;

    #[test]
    fn each_relation_compares_by_value() {
        let holds = |measured: f64, relation, bound: f64| {
            let mut report = Report::default();
            report.claim("row", "id", measured, relation, bound);
            report.claims[0].holds()
        };
        assert!(holds(3.0, AtMost, 3.0) && !holds(3.5, AtMost, 3.0));
        assert!(holds(3.0, AtLeast, 3.0) && !holds(2.5, AtLeast, 3.0));
        assert!(holds(1.25, MoreThan, 1.0) && !holds(1.0, MoreThan, 1.0));
        assert!(holds(0.0, Exactly, 0.0) && !holds(2.0, Exactly, 0.0));
    }

    #[test]
    fn a_violated_claim_fails_the_verdict_and_names_its_row() {
        let mut report = Report::default();
        report.claim("grid rows", "Thm 1.2 dilation", 92u32, AtMost, 837u32);
        assert_eq!(report.cell("grid rows"), "yes");
        assert!(report.violated().is_empty());
        // Hand-built, as a caller inspecting `claims` would see it.
        report.claims.push(Claim {
            id: "Thm 1.2 congestion",
            instance: "comb 10".to_string(),
            measured: 33.0,
            relation: AtMost,
            bound: 32.0,
        });
        report.claim("comb 10", "valid", true, Exactly, true);
        assert_eq!(
            (report.cell("comb 10"), report.cell("grid rows")),
            ("NO", "yes")
        );
        let violated: Vec<String> = report.violated().iter().map(|c| c.to_string()).collect();
        assert_eq!(violated, ["Thm 1.2 congestion [comb 10]: 33 ≤ 32"]);
    }
}
