//! SARIF 2.1.0 rendering of diagnostics.
//!
//! The Static Analysis Results Interchange Format is what CI systems
//! (GitHub code scanning, Azure DevOps, sarif-tools) ingest natively;
//! emitting it makes the checker's findings consumable without any
//! Jaaru-specific tooling. The workspace builds fully offline, so the
//! document is rendered by hand like the rest of the JSON output.
//!
//! Layout decisions, all in service of byte-stable output:
//!
//! * rule ids are [`DiagnosticKind::as_str`] — the same stable
//!   kebab-case tags used in JSON reports and digests;
//! * the `rules` array lists exactly the kinds present in the input,
//!   in [`DiagnosticKind::ALL`] declaration order;
//! * results appear in input order, which is [`DiagnosticSet`]
//!   first-insertion order — deterministic across worker counts;
//! * each result carries its source site's file, line and column as a
//!   `physicalLocation` and the fix suggestion as its message.
//!
//! [`DiagnosticSet`]: crate::DiagnosticSet

use std::fmt::Write as _;

use crate::diagnostic::{Diagnostic, DiagnosticKind, Severity};
use crate::json::json_string;
use crate::repair::FixEdit;

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Renders `diagnostics` as a complete SARIF 2.1.0 document. Output is
/// a deterministic function of the input list: same diagnostics in the
/// same order produce identical bytes.
pub fn to_sarif(diagnostics: &[Diagnostic], tool_version: &str) -> String {
    to_sarif_with_verified(diagnostics, tool_version, &[])
}

/// Emits one `fixes` array entry for a diagnostic's machine edit.
fn push_fix(out: &mut String, fix: &FixEdit) {
    let site = fix.site();
    let (line, column) = (site.line(), site.column());
    out.push_str("          \"fixes\": [\n            {\n");
    let _ = writeln!(
        out,
        "              \"description\": {{ \"text\": {} }},",
        json_string(&fix.to_string())
    );
    out.push_str("              \"artifactChanges\": [\n                {\n");
    let _ = writeln!(
        out,
        "                  \"artifactLocation\": {{ \"uri\": {} }},",
        json_string(site.file())
    );
    out.push_str("                  \"replacements\": [\n                    {\n");
    match fix.inserted_text() {
        // Insertions use a zero-width deleted region at the anchored
        // operation: SARIF's convention for "insert here".
        Some(text) => {
            let _ = writeln!(
                out,
                "                      \"deletedRegion\": {{ \"startLine\": {line}, \
                 \"startColumn\": {column}, \"endLine\": {line}, \"endColumn\": {column} }},"
            );
            let _ = writeln!(
                out,
                "                      \"insertedContent\": {{ \"text\": {} }}",
                json_string(text)
            );
        }
        // Deletions drop the anchored line.
        None => {
            let _ = writeln!(
                out,
                "                      \"deletedRegion\": {{ \"startLine\": {line}, \
                 \"endLine\": {line} }}"
            );
        }
    }
    out.push_str("                    }\n                  ]\n                }\n");
    out.push_str("              ]\n            }\n          ],\n");
}

/// [`to_sarif`] with a proven repair: results whose suggested edit the
/// `verified` set (the minimal edit set a re-check proved) contains —
/// exactly, or subsumed by a site-wide edit of the same kind — carry a
/// `"verified": true` property-bag flag, so CI can distinguish
/// candidate fixes from repairs the checker has already validated.
pub fn to_sarif_with_verified(
    diagnostics: &[Diagnostic],
    tool_version: &str,
    verified: &[FixEdit],
) -> String {
    let kinds_present: Vec<DiagnosticKind> = DiagnosticKind::ALL
        .into_iter()
        .filter(|k| diagnostics.iter().any(|d| d.kind == *k))
        .collect();
    let rule_index = |kind: DiagnosticKind| {
        kinds_present
            .iter()
            .position(|k| *k == kind)
            .expect("every result's kind is in the rules array")
    };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"jaaru\",\n");
    let _ = writeln!(out, "          \"version\": {},", json_string(tool_version));
    out.push_str("          \"informationUri\": \"https://github.com/uci-plrg/jaaru\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, kind) in kinds_present.iter().enumerate() {
        out.push_str("            {\n");
        let _ = writeln!(out, "              \"id\": \"{}\",", kind.as_str());
        let _ = writeln!(
            out,
            "              \"shortDescription\": {{ \"text\": {} }},",
            json_string(kind.describe())
        );
        let _ = writeln!(
            out,
            "              \"defaultConfiguration\": {{ \"level\": \"{}\" }}",
            level(kind.severity())
        );
        out.push_str("            }");
        out.push_str(if i + 1 < kinds_present.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diagnostics.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"ruleId\": \"{}\",", d.kind.as_str());
        let _ = writeln!(out, "          \"ruleIndex\": {},", rule_index(d.kind));
        let _ = writeln!(out, "          \"level\": \"{}\",", level(d.severity()));
        let _ = writeln!(
            out,
            "          \"message\": {{ \"text\": {} }},",
            json_string(&d.message)
        );
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        let _ = writeln!(
            out,
            "                \"artifactLocation\": {{ \"uri\": {} }},",
            json_string(d.site.file())
        );
        let _ = writeln!(
            out,
            "                \"region\": {{ \"startLine\": {}, \"startColumn\": {} }}",
            d.site.line(),
            d.site.column()
        );
        out.push_str("              }\n            }\n          ],\n");
        if let Some(fix) = &d.suggestion {
            push_fix(&mut out, fix);
        }
        // A verified edit proves the suggestion either exactly or by
        // subsumption: a site-wide edit (no cache-line filter) covers
        // every narrower suggestion of the same kind at that site.
        let is_verified = d.suggestion.as_ref().is_some_and(|fix| {
            verified
                .iter()
                .any(|v| v == fix || (v.same_fix(fix) && v.cache_line().is_none()))
        });
        out.push_str("          \"properties\": {\n");
        if is_verified {
            out.push_str("            \"verified\": true,\n");
        }
        match d.addr {
            Some(addr) => {
                let _ = writeln!(out, "            \"occurrences\": {},", d.occurrences);
                let _ = writeln!(
                    out,
                    "            \"addr\": {}",
                    json_string(&addr.to_string())
                );
            }
            None => {
                let _ = writeln!(out, "            \"occurrences\": {}", d.occurrences);
            }
        }
        out.push_str("          }\n        }");
        out.push_str(if i + 1 < diagnostics.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru_pmem::PmAddr;
    use jaaru_tso::SourceLoc;
    use std::panic::Location;

    fn diag(kind: DiagnosticKind, site: SourceLoc, message: &str) -> Diagnostic {
        Diagnostic {
            kind,
            site,
            message: message.into(),
            suggestion: None,
            addr: Some(PmAddr::new(128)),
            occurrences: 2,
        }
    }

    fn diag_with_fix(kind: DiagnosticKind, fix: FixEdit) -> Diagnostic {
        Diagnostic {
            suggestion: Some(fix),
            ..diag(kind, fix.site(), "fix it")
        }
    }

    #[test]
    fn document_has_required_structure() {
        let site = Location::caller();
        let diags = vec![
            diag(DiagnosticKind::MissingFlush, site, "insert clflush"),
            diag(
                DiagnosticKind::RedundantFence,
                Location::caller(),
                "remove it",
            ),
        ];
        let doc = to_sarif(&diags, "1.2.3");
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"jaaru\""));
        assert!(doc.contains("\"version\": \"1.2.3\""));
        assert!(doc.contains("\"id\": \"missing-flush\""));
        assert!(doc.contains("\"id\": \"redundant-fence\""));
        assert!(doc.contains("\"ruleId\": \"missing-flush\""));
        assert!(
            doc.contains(&format!("\"uri\": \"{}\"", site.file())),
            "{doc}"
        );
        assert!(
            doc.contains(&format!(
                "\"startLine\": {}, \"startColumn\": {}",
                site.line(),
                site.column()
            )),
            "{doc}"
        );
        assert!(doc.contains("\"level\": \"error\""));
        assert!(doc.contains("\"level\": \"warning\""));
        assert!(doc.contains("\"occurrences\": 2"));
    }

    #[test]
    fn rules_follow_declaration_order_and_results_index_them() {
        // Insert results out of declaration order; rules must still be
        // listed in DiagnosticKind::ALL order with matching ruleIndex.
        let diags = vec![
            diag(DiagnosticKind::RedundantFlush, Location::caller(), "x"),
            diag(DiagnosticKind::MissingFlush, Location::caller(), "y"),
        ];
        let doc = to_sarif(&diags, "0");
        let missing = doc.find("\"id\": \"missing-flush\"").unwrap();
        let redundant = doc.find("\"id\": \"redundant-flush\"").unwrap();
        assert!(missing < redundant, "rules in declaration order");
        // missing-flush is rules[0], redundant-flush rules[1]; results
        // keep input order, so the ruleIndex sequence is 1 then 0.
        let first = doc.find("\"ruleId\": \"redundant-flush\"").unwrap();
        let second = doc.find("\"ruleId\": \"missing-flush\"").unwrap();
        assert!(first < second, "results in input order");
        assert!(doc[first..second].contains("\"ruleIndex\": 1"));
        assert!(doc[second..].contains("\"ruleIndex\": 0"));
    }

    #[test]
    fn output_is_deterministic_and_escaped() {
        let diags = vec![diag(
            DiagnosticKind::MissingFence,
            Location::caller(),
            "fix \"this\"\nnow",
        )];
        let a = to_sarif(&diags, "0");
        let b = to_sarif(&diags, "0");
        assert_eq!(a, b);
        assert!(a.contains("fix \\\"this\\\"\\nnow"));
    }

    #[test]
    fn empty_input_yields_empty_rules_and_results() {
        let doc = to_sarif(&[], "0");
        assert!(doc.contains("\"rules\": [\n          ]"));
        assert!(doc.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn structured_fix_becomes_a_sarif_fixes_object() {
        let site = Location::caller();
        let fix = FixEdit::InsertFlush {
            site,
            line: Some(2),
        };
        let doc = to_sarif(&[diag_with_fix(DiagnosticKind::MissingFlush, fix)], "0");
        assert!(doc.contains("\"fixes\": ["), "{doc}");
        assert!(doc.contains("\"artifactChanges\""), "{doc}");
        assert!(doc.contains("\"replacements\""), "{doc}");
        assert!(
            doc.contains(
                "\"insertedContent\": { \"text\": \"env.clflush(addr, len); env.sfence();\" }"
            ),
            "{doc}"
        );
        let (line, column) = (site.line(), site.column());
        assert!(
            doc.contains(&format!(
                "\"deletedRegion\": {{ \"startLine\": {line}, \"startColumn\": {column}, \
                 \"endLine\": {line}, \"endColumn\": {column} }}"
            )),
            "{doc}"
        );
        // Unverified candidates carry the fix but no verified flag.
        assert!(!doc.contains("\"verified\""), "{doc}");
    }

    #[test]
    fn deletion_fix_drops_the_line_without_inserted_content() {
        let site = Location::caller();
        let fix = FixEdit::DeleteFlush { site, line: None };
        let doc = to_sarif(&[diag_with_fix(DiagnosticKind::RedundantFlush, fix)], "0");
        let line = site.line();
        assert!(
            doc.contains(&format!(
                "\"deletedRegion\": {{ \"startLine\": {line}, \"endLine\": {line} }}"
            )),
            "{doc}"
        );
        assert!(!doc.contains("insertedContent"), "{doc}");
    }

    #[test]
    fn verified_edits_flag_their_results() {
        let fix = FixEdit::InsertFlush {
            site: Location::caller(),
            line: None,
        };
        let other = FixEdit::InsertFence {
            site: Location::caller(),
            line: None,
        };
        let diags = vec![
            diag_with_fix(DiagnosticKind::MissingFlush, fix),
            diag_with_fix(DiagnosticKind::MissingFence, other),
        ];
        let doc = to_sarif_with_verified(&diags, "0", &[fix]);
        assert_eq!(doc.matches("\"verified\": true").count(), 1, "{doc}");
        let first = doc.find("\"ruleId\": \"missing-flush\"").unwrap();
        let second = doc.find("\"ruleId\": \"missing-fence\"").unwrap();
        assert!(doc[first..second].contains("\"verified\": true"), "{doc}");
        // And the unverified variant is byte-stable against itself.
        assert_eq!(
            to_sarif_with_verified(&diags, "0", &[]),
            to_sarif(&diags, "0")
        );
    }

    #[test]
    fn site_wide_verified_edit_subsumes_narrow_suggestions() {
        // Repair may widen a per-line suggestion to its whole site
        // before verification converges; the proven site-wide edit
        // still vouches for the narrow suggestions it covers.
        let site = Location::caller();
        let narrow = FixEdit::InsertFlush {
            site,
            line: Some(17),
        };
        let diags = vec![diag_with_fix(DiagnosticKind::MissingFlush, narrow)];
        let doc = to_sarif_with_verified(&diags, "0", &[narrow.generalized()]);
        assert_eq!(doc.matches("\"verified\": true").count(), 1, "{doc}");
        // A narrow verified edit at a *different* line does not.
        let other_line = FixEdit::InsertFlush {
            site,
            line: Some(18),
        };
        let doc = to_sarif_with_verified(&diags, "0", &[other_line]);
        assert!(!doc.contains("\"verified\""), "{doc}");
        // Nor does a site-wide edit of a different kind.
        let wrong_kind = FixEdit::InsertFence { site, line: None };
        let doc = to_sarif_with_verified(&diags, "0", &[wrong_kind]);
        assert!(!doc.contains("\"verified\""), "{doc}");
    }
}
