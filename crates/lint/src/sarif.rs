//! SARIF 2.1.0 rendering for CI annotation.
//!
//! GitHub's `codeql-action/upload-sarif` turns a SARIF log into inline
//! PR annotations, so every unwaived finding shows up on the diff line
//! it fired on. The renderer emits the minimal valid shape — one run,
//! one `tool.driver` carrying all nine rule definitions, one `result`
//! per finding — with stable key order so the artifact diffs cleanly
//! across CI runs. [`validate_sarif_2_1_0`] asserts that shape back
//! (read with the workspace's shared JSON parser), which is what the
//! acceptance test pins.

use crate::rules::Lint;
use crate::Report;
use sigma_telemetry::json::{self, quote, Json};

/// Renders the report's unwaived findings as a SARIF 2.1.0 log.
#[must_use]
pub fn report_to_sarif(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"sigma-lint\",\n");
    s.push_str("          \"informationUri\": \"https://github.com/sigma/sigma\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, lint) in Lint::ALL.iter().enumerate() {
        let comma = if i + 1 < Lint::ALL.len() { "," } else { "" };
        s.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{comma}\n",
            quote(lint.name()),
            quote(lint.description())
        ));
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() { "," } else { "" };
        let rule_index = Lint::ALL.iter().position(|l| *l == f.lint).unwrap_or(0);
        s.push_str("        {\n");
        s.push_str(&format!("          \"ruleId\": {},\n", quote(f.lint.name())));
        s.push_str(&format!("          \"ruleIndex\": {rule_index},\n"));
        s.push_str("          \"level\": \"error\",\n");
        s.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            quote(&format!("{} — {}", f.token, f.hint))
        ));
        s.push_str("          \"locations\": [\n            {\n");
        s.push_str("              \"physicalLocation\": {\n");
        s.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": {}, \"uriBaseId\": \"%SRCROOT%\"}},\n",
            quote(&f.path)
        ));
        s.push_str(&format!("                \"region\": {{\"startLine\": {}}}\n", f.line.max(1)));
        s.push_str("              }\n            }\n          ]\n");
        s.push_str(&format!("        }}{comma}\n"));
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

/// Asserts the SARIF 2.1.0 shape GitHub's upload action requires:
/// version, one run with tool-driver rule metadata, and per-result
/// `ruleId`/`message.text`/physical locations with positive lines.
pub fn validate_sarif_2_1_0(src: &str) -> Result<(), String> {
    let doc = json::parse(src)?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version must be \"2.1.0\"".into());
    }
    if doc.get("$schema").and_then(Json::as_str).is_none_or(|s| !s.contains("sarif-2.1.0")) {
        return Err("$schema must reference sarif-2.1.0".into());
    }
    let runs = doc.get("runs").and_then(Json::as_array).ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs must be non-empty".into());
    }
    for run in runs {
        let driver =
            run.get("tool").and_then(|t| t.get("driver")).ok_or("each run needs tool.driver")?;
        if driver.get("name").and_then(Json::as_str).is_none_or(str::is_empty) {
            return Err("tool.driver.name must be a non-empty string".into());
        }
        let rules = driver
            .get("rules")
            .and_then(Json::as_array)
            .ok_or("tool.driver.rules must be an array")?;
        for rule in rules {
            if rule.get("id").and_then(Json::as_str).is_none_or(str::is_empty) {
                return Err("every rule needs a non-empty id".into());
            }
        }
        let results =
            run.get("results").and_then(Json::as_array).ok_or("results must be an array")?;
        for r in results {
            let rule_id =
                r.get("ruleId").and_then(Json::as_str).ok_or("result.ruleId must be a string")?;
            if !rules.iter().any(|rl| rl.get("id").and_then(Json::as_str) == Some(rule_id)) {
                return Err(format!("result.ruleId `{rule_id}` has no rule definition"));
            }
            if r.get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none_or(str::is_empty)
            {
                return Err("result.message.text must be a non-empty string".into());
            }
            let locations = r
                .get("locations")
                .and_then(Json::as_array)
                .ok_or("result.locations must be an array")?;
            for loc in locations {
                let phys =
                    loc.get("physicalLocation").ok_or("each location needs physicalLocation")?;
                if phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    return Err("physicalLocation.artifactLocation.uri must be set".into());
                }
                if phys
                    .get("region")
                    .and_then(|rg| rg.get("startLine"))
                    .and_then(Json::number::<u64>)
                    .is_none_or(|n| n < 1)
                {
                    return Err("physicalLocation.region.startLine must be >= 1".into());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn sample_report() -> Report {
        Report {
            findings: vec![
                Finding {
                    lint: Lint::D7,
                    path: "crates/bench/src/harness/cache.rs".into(),
                    line: 42,
                    token: "state <-> store".into(),
                    hint: "lock-order inversion with a \"quote\" and a \\ backslash".into(),
                },
                Finding {
                    lint: Lint::D2,
                    path: "crates/core/src/lib.rs".into(),
                    line: 7,
                    token: ".unwrap()".into(),
                    hint: "unwrap in library code".into(),
                },
            ],
            ..Report::default()
        }
    }

    #[test]
    fn rendered_sarif_passes_the_shape_validator() {
        let sarif = report_to_sarif(&sample_report());
        validate_sarif_2_1_0(&sarif).unwrap();
        assert!(sarif.contains("\"ruleId\": \"D7\""));
        assert!(sarif.contains("\"startLine\": 42"));
        assert!(sarif.contains("%SRCROOT%"));
    }

    #[test]
    fn empty_report_is_still_valid_sarif() {
        let sarif = report_to_sarif(&Report::default());
        validate_sarif_2_1_0(&sarif).unwrap();
        assert!(sarif.contains("\"results\": [\n      ]"));
        // All nine rules are always declared, findings or not.
        for lint in Lint::ALL {
            assert!(sarif.contains(&format!("\"id\": \"{}\"", lint.name())), "{}", lint.name());
        }
    }

    #[test]
    fn validator_rejects_broken_shapes() {
        assert!(validate_sarif_2_1_0("{}").is_err());
        assert!(validate_sarif_2_1_0("{\"version\": \"2.0.0\"}").is_err());
        let no_rule_def = r#"{
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {"name": "x", "rules": []}},
                "results": [{
                    "ruleId": "D1",
                    "message": {"text": "m"},
                    "locations": []
                }]
            }]
        }"#;
        let err = validate_sarif_2_1_0(no_rule_def).unwrap_err();
        assert!(err.contains("no rule definition"), "{err}");
        let zero_line = r#"{
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {"name": "x", "rules": [{"id": "D1"}]}},
                "results": [{
                    "ruleId": "D1",
                    "message": {"text": "m"},
                    "locations": [{"physicalLocation": {
                        "artifactLocation": {"uri": "a.rs"},
                        "region": {"startLine": 0}
                    }}]
                }]
            }]
        }"#;
        let err = validate_sarif_2_1_0(zero_line).unwrap_err();
        assert!(err.contains("startLine"), "{err}");
    }
}
