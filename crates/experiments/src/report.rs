//! Small plain-text table formatting used by the experiment tables, so
//! each one prints the same rows/series the paper's figures report.

use crate::record::Record;

/// Render a table with a header row; columns are padded to the widest cell.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Render a table with one row per item; `cells` maps an item to its row.
pub fn table_of<T>(headers: &[&str], items: &[T], cells: impl Fn(&T) -> Vec<String>) -> String {
    render_table(headers, &items.iter().map(cells).collect::<Vec<_>>())
}

/// Format a bits-per-second value as kbps with one decimal.
pub fn kbps(bps: f64) -> String {
    format!("{:.1}", bps / 1000.0)
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format seconds with two decimals, or `n/a` when there is nothing to
/// average.
pub fn secs2(s: Option<f64>) -> String {
    s.map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}"))
}

/// Format an optional value with one decimal, or `none` when absent
/// (a recovery that never happened, a metric that does not apply).
pub fn opt1(x: Option<f64>, none: &str) -> String {
    x.map_or_else(|| none.to_string(), |v| format!("{v:.1}"))
}

/// Render a record's drop budget: one row per nonzero cause with the run
/// total and, when per-flow attribution found them, the user/attacker
/// split. The defense's budget (in the report) covers every drop in the
/// run; the role columns only cover drops attributable to a role flow, so
/// they may sum to less than the total.
pub fn drop_budget_table(record: &Record) -> String {
    let budget = &record.report.drop_budget;
    let mut user = netfence_sim::prelude::DropBudget::default();
    let mut attacker = netfence_sim::prelude::DropBudget::default();
    for role in &record.roles {
        match role.role {
            crate::record::Role::User => user.merge(&role.drops),
            crate::record::Role::Attacker => attacker.merge(&role.drops),
        }
    }
    let mut rows: Vec<Vec<String>> = budget
        .nonzero()
        .map(|(cause, n)| {
            vec![
                cause.label().to_string(),
                n.to_string(),
                user.get(cause).to_string(),
                attacker.get(cause).to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        "total".to_string(),
        budget.total().to_string(),
        user.total().to_string(),
        attacker.total().to_string(),
    ]);
    render_table(&["cause", "drops", "users", "attackers"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["system", "value"],
            &[vec!["NetFence".into(), "1.0".into()], vec!["FQ".into(), "10.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("system"));
        assert!(lines[2].starts_with("NetFence"));
        // Columns align: "value" starts at the same offset in every row.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 3], "1.0");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kbps(123_456.0), "123.5");
        assert_eq!(pct(0.934), "93.4%");
        assert_eq!(secs2(Some(1.2345)), "1.23");
        assert_eq!(secs2(None), "n/a");
        assert_eq!(opt1(Some(1.25), "never"), "1.2");
        assert_eq!(opt1(None, "never"), "never");
    }

    #[test]
    fn drop_budget_table_lists_causes_and_total() {
        use crate::prelude::*;
        use netfence_sim::prelude::SEC;
        let spec = ScenarioSpec::dumbbell(Scale::tiny()).defense(DefenseKind::NetFence);
        let record = Runner::new(spec.sim_time(5 * SEC)).run();
        let table = drop_budget_table(&record);
        assert!(table.starts_with("cause"), "{table}");
        assert!(table.contains("total"), "{table}");
        // The table's total row is exactly the report's budget total.
        let last = table.lines().last().unwrap();
        let cells: Vec<&str> = last.split_whitespace().collect();
        assert_eq!(cells[0], "total");
        assert_eq!(cells[1], record.report.drop_budget.total().to_string(), "{table}");
    }
}
