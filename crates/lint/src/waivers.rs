//! Parser and matcher for `lint-waivers.toml`.
//!
//! The waiver file is a hand-rolled subset of TOML: `[[waiver]]` array
//! entries with exactly the string keys `rule`, `file`, `contains`,
//! `justification`, `added_in`, and `re_audit_after`. `contains` is
//! matched against the trimmed source line of the violation, keyed by
//! snippet rather than line number so waivers stay valid across
//! unrelated edits.
//!
//! Hygiene is enforced here, not in the driver: a hard total budget
//! ([`MAX_WAIVERS`]), a per-rule budget ([`MAX_WAIVERS_PER_RULE`]), a
//! zero budget for rule U1 (the parser rejects any U1 entry), and
//! staleness — `added_in` / `re_audit_after` carry `"PR <n>"` stamps,
//! and once the workspace moves past a waiver's `re_audit_after` PR the
//! run fails until the site is either fixed or consciously re-waived
//! with a pushed-out stamp.

use std::collections::BTreeMap;

use crate::rules::Violation;

/// Hard budget: the waiver file may never grow beyond this many entries.
pub const MAX_WAIVERS: usize = 10;

/// Per-rule budget: no single rule may accumulate more than this many
/// waivers — past that, the rule is either wrong or being dodged.
pub const MAX_WAIVERS_PER_RULE: usize = 4;

/// One waived violation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule identifier the waiver applies to.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Substring that must appear on the violating source line.
    pub contains: String,
    /// Why this site is allowed to violate the rule.
    pub justification: String,
    /// PR stamp (`"PR <n>"`) when the waiver was introduced.
    pub added_in: u32,
    /// PR stamp (`"PR <n>"`) after which the waiver goes stale and the
    /// site must be re-audited.
    pub re_audit_after: u32,
}

/// Parse a `"PR <n>"` stamp.
fn parse_pr_stamp(key: &str, value: &str) -> Result<u32, String> {
    value
        .strip_prefix("PR ")
        .and_then(|n| n.trim().parse::<u32>().ok())
        .ok_or_else(|| format!("`{key}` must look like \"PR 9\", got {value:?}"))
}

/// Parse the waiver file contents. Returns an error message for any line the
/// strict subset does not accept, and enforces the total and per-rule
/// budgets.
pub fn parse_waivers(text: &str) -> Result<Vec<Waiver>, String> {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut current: Option<[Option<String>; 6]> = None;

    fn finish(entry: [Option<String>; 6], idx: usize) -> Result<Waiver, String> {
        let [rule, file, contains, justification, added_in, re_audit_after] = entry;
        let missing = |k: &str| format!("waiver #{idx} is missing key `{k}`");
        let added_in = parse_pr_stamp("added_in", &added_in.ok_or_else(|| missing("added_in"))?)?;
        let re_audit_after = parse_pr_stamp(
            "re_audit_after",
            &re_audit_after.ok_or_else(|| missing("re_audit_after"))?,
        )?;
        let rule = rule.ok_or_else(|| missing("rule"))?;
        if rule == "U1" {
            return Err(format!(
                "waiver #{idx}: rule U1 cannot be waived — delete the unused \
                 function instead"
            ));
        }
        if re_audit_after < added_in {
            return Err(format!(
                "waiver #{idx}: re_audit_after (PR {re_audit_after}) precedes added_in \
                 (PR {added_in})"
            ));
        }
        Ok(Waiver {
            rule,
            file: file.ok_or_else(|| missing("file"))?,
            contains: contains.ok_or_else(|| missing("contains"))?,
            justification: justification.ok_or_else(|| missing("justification"))?,
            added_in,
            re_audit_after,
        })
    }

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[waiver]]" {
            if let Some(entry) = current.take() {
                waivers.push(finish(entry, waivers.len() + 1)?);
            }
            current = Some([None, None, None, None, None, None]);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = \"value\"`", lineno + 1));
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!(
                "line {}: value for `{key}` must be a double-quoted string",
                lineno + 1
            ));
        };
        let value = value.replace("\\\"", "\"").replace("\\\\", "\\");
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "line {}: `{key}` appears before any [[waiver]] header",
                lineno + 1
            ));
        };
        let slot = match key {
            "rule" => 0,
            "file" => 1,
            "contains" => 2,
            "justification" => 3,
            "added_in" => 4,
            "re_audit_after" => 5,
            other => {
                return Err(format!("line {}: unknown key `{other}`", lineno + 1));
            }
        };
        if entry[slot].is_some() {
            return Err(format!("line {}: duplicate key `{key}`", lineno + 1));
        }
        if value.is_empty() {
            return Err(format!("line {}: `{key}` must not be empty", lineno + 1));
        }
        entry[slot] = Some(value);
    }
    if let Some(entry) = current.take() {
        waivers.push(finish(entry, waivers.len() + 1)?);
    }

    if waivers.len() > MAX_WAIVERS {
        return Err(format!(
            "{} entries; the budget is {MAX_WAIVERS} — fix sites instead of waiving them",
            waivers.len()
        ));
    }
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for w in &waivers {
        *per_rule.entry(w.rule.as_str()).or_default() += 1;
    }
    if let Some((rule, count)) = per_rule
        .iter()
        .find(|&(_, &count)| count > MAX_WAIVERS_PER_RULE)
    {
        return Err(format!(
            "rule {rule} has {count} waivers; the per-rule budget is \
             {MAX_WAIVERS_PER_RULE} — either the sites or the rule need fixing"
        ));
    }
    Ok(waivers)
}

/// Waivers whose `re_audit_after` stamp has passed, given the PR number
/// currently in flight. Each returned entry is `(index, message)`.
pub fn stale_waivers(waivers: &[Waiver], current_pr: u32) -> Vec<(usize, String)> {
    waivers
        .iter()
        .enumerate()
        .filter(|(_, w)| current_pr > w.re_audit_after)
        .map(|(i, w)| {
            (
                i,
                format!(
                    "waiver #{} ({} in {}, added in PR {}) was due for re-audit after \
                     PR {} and the workspace is now at PR {current_pr}; re-audit the \
                     site — fix it or push out `re_audit_after` with a fresh \
                     justification",
                    i + 1,
                    w.rule,
                    w.file,
                    w.added_in,
                    w.re_audit_after
                ),
            )
        })
        .collect()
}

/// Extract the PR number currently in flight from `CHANGES.md` contents:
/// one past the highest `- PR <n>:` entry already recorded.
pub fn current_pr_from_changes(changes: &str) -> u32 {
    changes
        .lines()
        .filter_map(|l| {
            l.trim()
                .strip_prefix("- PR ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.trim().parse::<u32>().ok())
        })
        .max()
        .map_or(1, |n| n + 1)
}

/// Outcome of matching violations against waivers.
#[derive(Debug)]
pub struct WaiverReport {
    /// Violations not covered by any waiver — these fail the build.
    pub unwaived: Vec<Violation>,
    /// Violations silenced by a waiver.
    pub waived: Vec<Violation>,
    /// Indices (into the waiver list) of waivers that matched nothing —
    /// stale entries also fail the build to keep the budget honest.
    pub unused: Vec<usize>,
}

/// Split `violations` into waived and unwaived, tracking stale waivers.
pub fn apply_waivers(violations: Vec<Violation>, waivers: &[Waiver]) -> WaiverReport {
    let mut used = vec![false; waivers.len()];
    let (waived, unwaived) = violations.into_iter().partition(|v| {
        let hit = waivers
            .iter()
            .position(|w| w.rule == v.rule && w.file == v.file && v.snippet.contains(&w.contains));
        if let Some(idx) = hit {
            used[idx] = true;
        }
        hit.is_some()
    });
    WaiverReport {
        unwaived,
        waived,
        unused: (0..waivers.len()).filter(|&i| !used[i]).collect(),
    }
}
