//! Plain (unauthenticated) relational checks over tables: the non-key
//! filter test the publisher applies inside a key range (Section 4.4
//! multipoint queries) and the referential-integrity check that licenses
//! a pk-fk join (Section 4.3). Query *answering* lives in `adp-core`,
//! whose publisher builds verification objects around these primitives.

use crate::query::Predicate;
use crate::record::Record;
use crate::table::Table;

/// Evaluates all of `filters` against a record.
pub fn passes_filters(table: &Table, record: &Record, filters: &[Predicate]) -> bool {
    filters
        .iter()
        .all(|p| p.eval(table.schema(), record.values()))
}

/// Checks referential integrity of `r.fk ⊆ s.pk` (every fk value has a
/// pk match and pk values are unique).
pub fn check_referential_integrity(r: &Table, s: &Table) -> Result<(), String> {
    // pk uniqueness: replica numbers beyond 0 mean duplicates.
    for row in s.rows() {
        if row.replica != 0 {
            return Err(format!(
                "primary key {} duplicated in {}",
                row.record.key(s.schema()),
                s.name()
            ));
        }
    }
    for row in r.rows() {
        let fk = row.record.key(r.schema());
        if s.position_of(fk, 0).is_none() {
            return Err(format!(
                "foreign key {fk} in {} has no match in {}",
                r.name(),
                s.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CompareOp, KeyRange, SelectQuery};
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};

    /// The paper's Figure 1 Employee table.
    fn emp_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("salary", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "salary",
        );
        let mut t = Table::new("emp", schema);
        for (id, name, sal, dept) in [
            (5i64, "A", 2000i64, 1i64),
            (2, "C", 3500, 2),
            (1, "D", 8010, 1),
            (4, "B", 12100, 3),
            (3, "E", 25000, 2),
        ] {
            t.insert(Record::new(vec![
                Value::Int(id),
                Value::from(name),
                Value::Int(sal),
                Value::Int(dept),
            ]))
            .unwrap();
        }
        t
    }

    /// The selection the publisher runs inside a key range: the ids of
    /// the rows passing every filter, plus the in-range positions whose
    /// rows failed one (Section 4.4 must account for these).
    fn select(t: &Table, q: &SelectQuery) -> (Vec<i64>, Vec<usize>) {
        let (mut ids, mut filtered) = (Vec::new(), Vec::new());
        for (pos, row) in t.scan_range(q.range.lo, q.range.hi) {
            if passes_filters(t, &row.record, &q.filters) {
                ids.push(row.record.get(0).as_int().unwrap());
            } else {
                filtered.push(pos);
            }
        }
        (ids, filtered)
    }

    #[test]
    fn figure1_query() {
        // SELECT * FROM Emp WHERE Salary < 10000
        let q = SelectQuery::range(KeyRange::less_than(10_000));
        assert_eq!(select(&emp_table(), &q), (vec![5, 2, 1], vec![]));
    }

    #[test]
    fn figure1_multipoint_query() {
        // SELECT * FROM Emp WHERE Salary < 10000 AND Dept = 1 (Section 4.4)
        let q = SelectQuery::range(KeyRange::less_than(10_000)).filter(Predicate::new(
            "dept",
            CompareOp::Eq,
            1i64,
        ));
        // [002, C, 3500, 2] at position 1 is inside the range but filtered.
        assert_eq!(select(&emp_table(), &q), (vec![5, 1], vec![1]));
    }

    #[test]
    fn empty_range() {
        let q = SelectQuery::range(KeyRange::closed(4000, 8000));
        assert_eq!(select(&emp_table(), &q), (vec![], vec![]));
    }

    fn dept_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("dept", ValueType::Int),
                Column::new("dname", ValueType::Text),
            ],
            "dept",
        );
        let mut t = Table::new("dept", schema);
        for (d, n) in [(1i64, "eng"), (2, "sales"), (3, "hr")] {
            t.insert(Record::new(vec![Value::Int(d), Value::from(n)]))
                .unwrap();
        }
        t
    }

    #[test]
    fn referential_integrity_detects_orphan() {
        let schema = Schema::new(vec![Column::new("dept", ValueType::Int)], "dept");
        let mut r = Table::new("r", schema.clone());
        r.insert(Record::new(vec![Value::Int(99)])).unwrap();
        let s = dept_table();
        assert!(check_referential_integrity(&r, &s).is_err());
    }

    #[test]
    fn referential_integrity_detects_duplicate_pk() {
        let r = dept_table();
        let schema = Schema::new(vec![Column::new("dept", ValueType::Int)], "dept");
        let mut s = Table::new("s", schema);
        s.insert(Record::new(vec![Value::Int(1)])).unwrap();
        s.insert(Record::new(vec![Value::Int(1)])).unwrap();
        assert!(check_referential_integrity(&r, &s).is_err());
    }
}
