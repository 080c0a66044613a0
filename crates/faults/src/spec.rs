//! The `--faults` command-line specification grammar.
//!
//! A spec is a semicolon-separated list of clauses, each clause a fault
//! process `kind:key=value,key=value,...`:
//!
//! ```text
//! outage:site=2,mttf=4h,mttr=30m[,shape=1.5]     random whole-site outages
//! outage:site=all,mttf=12h,mttr=20m              ... for every site
//! maint:site=1,start=6h,duration=1h[,period=24h] fixed maintenance windows
//! incident:sites=0+2,mttf=24h,mttr=45m[,shape=2] correlated multi-site incidents
//! nodeloss:site=0,fraction=0.25,mttf=8h,mttr=1h  partial node loss
//! diskloss:site=1,mttf=24h                       storage-media loss (data gone)
//! degrade:link=all,factor=0.3,mttf=6h,mttr=15m   link bandwidth degradation
//! kill:rate=1.5                                  job kills per simulated hour
//! horizon=48h                                    generation horizon
//! ```
//!
//! Durations accept the suffixes `s`, `m`, `h`, `d` (plain numbers are
//! seconds). `site=all` targets every site; `link=all` targets every WAN
//! link; `link=<i>` is the i-th WAN link in platform order.

use crate::plan::{
    DegradationSpec, DiskLossSpec, FaultPlanConfig, IncidentSpec, LinkSelector, MaintenanceSpec,
    NodeLossSpec, OutageSpec, SiteSelector,
};

/// Parses a `--faults` specification string into a plan configuration.
pub fn parse_fault_spec(spec: &str) -> Result<FaultPlanConfig, String> {
    let mut config = FaultPlanConfig::default();
    for raw_clause in spec.split(';') {
        let clause = raw_clause.trim();
        if clause.is_empty() {
            continue;
        }
        if let Some(value) = clause.strip_prefix("horizon=") {
            config.horizon_s = parse_duration(value)?;
            continue;
        }
        let (kind, body) = clause
            .split_once(':')
            .ok_or_else(|| format!("clause '{clause}' is missing its 'kind:' prefix"))?;
        let kvs = parse_kvs(body, clause)?;
        match kind.trim() {
            "outage" => config.outages.push(OutageSpec {
                site: parse_site_selector(require(&kvs, "site", clause)?)?,
                mttf_s: positive_duration(require(&kvs, "mttf", clause)?, "mttf")?,
                mttr_s: positive_duration(require(&kvs, "mttr", clause)?, "mttr")?,
                shape: optional_shape(&kvs)?,
            }),
            "maint" => config.maintenance.push(MaintenanceSpec {
                site: parse_index(require(&kvs, "site", clause)?)?,
                start_s: parse_duration(require(&kvs, "start", clause)?)?,
                duration_s: parse_duration(require(&kvs, "duration", clause)?)?,
                period_s: lookup(&kvs, "period")
                    .map(|v| positive_duration(v, "period"))
                    .transpose()?,
            }),
            "incident" => config.incidents.push(IncidentSpec {
                sites: parse_site_list(require(&kvs, "sites", clause)?)?,
                mttf_s: positive_duration(require(&kvs, "mttf", clause)?, "mttf")?,
                mttr_s: positive_duration(require(&kvs, "mttr", clause)?, "mttr")?,
                shape: optional_shape(&kvs)?,
            }),
            "nodeloss" => config.node_losses.push(NodeLossSpec {
                site: parse_site_selector(require(&kvs, "site", clause)?)?,
                fraction: parse_fraction(require(&kvs, "fraction", clause)?)?,
                mttf_s: positive_duration(require(&kvs, "mttf", clause)?, "mttf")?,
                mttr_s: positive_duration(require(&kvs, "mttr", clause)?, "mttr")?,
            }),
            "diskloss" => config.disk_losses.push(DiskLossSpec {
                site: parse_site_selector(require(&kvs, "site", clause)?)?,
                mttf_s: positive_duration(require(&kvs, "mttf", clause)?, "mttf")?,
            }),
            "degrade" => config.degradations.push(DegradationSpec {
                link: parse_link_selector(require(&kvs, "link", clause)?)?,
                factor: parse_fraction(require(&kvs, "factor", clause)?)?,
                mttf_s: positive_duration(require(&kvs, "mttf", clause)?, "mttf")?,
                mttr_s: positive_duration(require(&kvs, "mttr", clause)?, "mttr")?,
                shape: optional_shape(&kvs)?,
            }),
            "kill" => {
                let rate: f64 = require(&kvs, "rate", clause)?
                    .parse()
                    .map_err(|_| format!("kill rate is not a number in '{clause}'"))?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(format!(
                        "kill rate must be a non-negative number, got {rate}"
                    ));
                }
                config.kill_rate_per_hour = rate;
            }
            other => {
                return Err(format!(
                    "unknown fault kind '{other}' (expected outage, maint, incident, \
                     nodeloss, diskloss, degrade, kill or horizon=<dur>)"
                ))
            }
        }
    }
    Ok(config)
}

/// Splits `key=value,key=value` into pairs, rejecting duplicate keys — a
/// repeated key is almost always a typo (the last value would silently win
/// or lose depending on lookup order), so it fails loudly instead.
fn parse_kvs<'a>(body: &'a str, clause: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let kvs: Vec<(&str, &str)> = body
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            part.split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("expected key=value, found '{part}' in '{clause}'"))
        })
        .collect::<Result<_, _>>()?;
    for (i, (key, _)) in kvs.iter().enumerate() {
        if kvs[..i].iter().any(|(k, _)| k == key) {
            return Err(format!(
                "duplicate key '{key}' in '{clause}' (each key may appear once per clause)"
            ));
        }
    }
    Ok(kvs)
}

fn lookup<'a>(kvs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    kvs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn require<'a>(kvs: &[(&'a str, &'a str)], key: &str, clause: &str) -> Result<&'a str, String> {
    lookup(kvs, key).ok_or_else(|| format!("clause '{clause}' is missing '{key}='"))
}

fn optional_f64(kvs: &[(&str, &str)], key: &str) -> Result<Option<f64>, String> {
    match lookup(kvs, key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("'{key}={v}' is not a number")),
    }
}

/// The optional Weibull `shape` parameter of a clause (default 1.0 =
/// exponential). Shape must be strictly positive: zero or negative shapes
/// have no Weibull meaning and would make the sampler produce nonsense (or
/// worse) deep inside plan generation, far from the typo that caused them.
fn optional_shape(kvs: &[(&str, &str)]) -> Result<f64, String> {
    let shape = optional_f64(kvs, "shape")?.unwrap_or(1.0);
    if !shape.is_finite() || shape <= 0.0 {
        return Err(format!(
            "shape must be a positive number, got {shape} (1.0 = exponential; \
             >1 wear-out, <1 infant-mortality failures)"
        ));
    }
    Ok(shape)
}

/// A duration that must be strictly positive: MTTF/MTTR/period values of 0
/// would ask the plan generator for infinitely many events (a zero mean
/// time between failures = failures always), so they are rejected here with
/// the offending key named rather than hanging generation later.
fn positive_duration(text: &str, key: &str) -> Result<f64, String> {
    let value = parse_duration(text)?;
    if value <= 0.0 {
        return Err(format!(
            "'{key}={text}' must be a positive duration (got {value}s; use a value > 0)"
        ));
    }
    Ok(value)
}

/// Parses a duration: a number with an optional `s`/`m`/`h`/`d` suffix
/// (plain numbers are seconds). Shared with the duration knobs of the
/// `cgsim` command line, hence public.
pub fn parse_duration(text: &str) -> Result<f64, String> {
    let text = text.trim();
    let (number, multiplier) = match text.chars().last() {
        Some('s') => (&text[..text.len() - 1], 1.0),
        Some('m') => (&text[..text.len() - 1], 60.0),
        Some('h') => (&text[..text.len() - 1], 3600.0),
        Some('d') => (&text[..text.len() - 1], 86_400.0),
        _ => (text, 1.0),
    };
    let value: f64 = number
        .parse()
        .map_err(|_| format!("'{text}' is not a duration (number with optional s/m/h/d)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration '{text}' must be non-negative and finite"));
    }
    Ok(value * multiplier)
}

fn parse_index(text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("'{text}' is not a site index"))
}

fn parse_site_selector(text: &str) -> Result<SiteSelector, String> {
    if text == "all" {
        Ok(SiteSelector::All)
    } else {
        parse_index(text).map(SiteSelector::Index)
    }
}

fn parse_link_selector(text: &str) -> Result<LinkSelector, String> {
    if text == "all" {
        Ok(LinkSelector::All)
    } else {
        text.parse()
            .map(LinkSelector::Index)
            .map_err(|_| format!("'{text}' is not a link index"))
    }
}

/// Parses `0+2+5` into `[0, 2, 5]`.
fn parse_site_list(text: &str) -> Result<Vec<usize>, String> {
    text.split('+')
        .map(|part| parse_index(part.trim()))
        .collect()
}

fn parse_fraction(text: &str) -> Result<f64, String> {
    let value: f64 = text
        .parse()
        .map_err(|_| format!("'{text}' is not a fraction"))?;
    if !(0.0..=1.0).contains(&value) {
        return Err(format!("fraction '{text}' must be in [0, 1]"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_parses() {
        let config = parse_fault_spec(
            "outage:site=2,mttf=4h,mttr=30m,shape=1.5;\
             maint:site=1,start=6h,duration=1h,period=24h;\
             incident:sites=0+2,mttf=24h,mttr=45m;\
             nodeloss:site=0,fraction=0.25,mttf=8h,mttr=1h;\
             diskloss:site=all,mttf=36h;\
             degrade:link=all,factor=0.3,mttf=6h,mttr=15m;\
             kill:rate=1.5;horizon=2d",
        )
        .unwrap();
        assert_eq!(config.outages.len(), 1);
        assert_eq!(config.outages[0].site, SiteSelector::Index(2));
        assert_eq!(config.outages[0].mttf_s, 4.0 * 3600.0);
        assert_eq!(config.outages[0].mttr_s, 1800.0);
        assert_eq!(config.outages[0].shape, 1.5);
        assert_eq!(config.maintenance[0].period_s, Some(86_400.0));
        assert_eq!(config.incidents[0].sites, vec![0, 2]);
        assert_eq!(config.incidents[0].shape, 1.0);
        assert_eq!(config.node_losses[0].fraction, 0.25);
        assert_eq!(config.disk_losses[0].site, SiteSelector::All);
        assert_eq!(config.disk_losses[0].mttf_s, 36.0 * 3600.0);
        assert_eq!(config.degradations[0].link, LinkSelector::All);
        assert_eq!(config.degradations[0].factor, 0.3);
        assert_eq!(config.kill_rate_per_hour, 1.5);
        assert_eq!(config.horizon_s, 2.0 * 86_400.0);
    }

    #[test]
    fn site_all_and_plain_seconds() {
        let config = parse_fault_spec("outage:site=all,mttf=4000,mttr=600").unwrap();
        assert_eq!(config.outages[0].site, SiteSelector::All);
        assert_eq!(config.outages[0].mttf_s, 4000.0);
        assert_eq!(config.horizon_s, crate::plan::DEFAULT_HORIZON_S);
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_configs() {
        assert!(parse_fault_spec("").unwrap().is_empty());
        assert!(parse_fault_spec(" ; ;").unwrap().is_empty());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_fault_spec("bogus:site=1")
            .unwrap_err()
            .contains("unknown fault kind"));
        assert!(parse_fault_spec("outage:mttf=1h,mttr=1m")
            .unwrap_err()
            .contains("missing 'site='"));
        assert!(parse_fault_spec("outage:site=1,mttf=xyz,mttr=1m")
            .unwrap_err()
            .contains("not a duration"));
        assert!(
            parse_fault_spec("nodeloss:site=1,fraction=1.5,mttf=1h,mttr=1m")
                .unwrap_err()
                .contains("must be in [0, 1]")
        );
        assert!(parse_fault_spec("outage").unwrap_err().contains("kind"));
        assert!(parse_fault_spec("kill:rate=-2").is_err());
        assert!(parse_fault_spec("diskloss:site=1")
            .unwrap_err()
            .contains("missing 'mttf='"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse_fault_spec("outage:site=1,mttf=1h,mttf=2h,mttr=1m").unwrap_err();
        assert!(err.contains("duplicate key 'mttf'"), "got: {err}");
        let err = parse_fault_spec("maint:site=0,start=1h,duration=1h,site=2").unwrap_err();
        assert!(err.contains("duplicate key 'site'"), "got: {err}");
    }

    #[test]
    fn zero_mttf_is_rejected() {
        for spec in [
            "outage:site=1,mttf=0,mttr=1m",
            "incident:sites=0+1,mttf=0s,mttr=1m",
            "nodeloss:site=1,fraction=0.5,mttf=0h,mttr=1m",
            "diskloss:site=all,mttf=0",
            "degrade:link=all,factor=0.5,mttf=0m,mttr=1m",
        ] {
            let err = parse_fault_spec(spec).unwrap_err();
            assert!(
                err.contains("'mttf=0") && err.contains("positive duration"),
                "spec '{spec}' got: {err}"
            );
        }
    }

    #[test]
    fn zero_mttr_is_rejected() {
        let err = parse_fault_spec("outage:site=1,mttf=1h,mttr=0").unwrap_err();
        assert!(
            err.contains("'mttr=0") && err.contains("positive duration"),
            "got: {err}"
        );
    }

    #[test]
    fn zero_maintenance_period_is_rejected() {
        let err = parse_fault_spec("maint:site=0,start=1h,duration=30m,period=0").unwrap_err();
        assert!(
            err.contains("'period=0") && err.contains("positive duration"),
            "got: {err}"
        );
        // Non-periodic maintenance (no period key) still parses.
        assert!(parse_fault_spec("maint:site=0,start=1h,duration=30m").is_ok());
    }

    #[test]
    fn non_positive_shape_is_rejected() {
        for spec in [
            "outage:site=1,mttf=1h,mttr=1m,shape=0",
            "incident:sites=0+1,mttf=1h,mttr=1m,shape=-1.5",
            "degrade:link=all,factor=0.5,mttf=1h,mttr=1m,shape=0.0",
        ] {
            let err = parse_fault_spec(spec).unwrap_err();
            assert!(
                err.contains("shape must be a positive"),
                "spec '{spec}' got: {err}"
            );
        }
    }

    #[test]
    fn negative_fraction_and_factor_are_rejected() {
        let err = parse_fault_spec("nodeloss:site=1,fraction=-0.2,mttf=1h,mttr=1m").unwrap_err();
        assert!(err.contains("must be in [0, 1]"), "got: {err}");
        let err = parse_fault_spec("degrade:link=all,factor=-0.3,mttf=1h,mttr=1m").unwrap_err();
        assert!(err.contains("must be in [0, 1]"), "got: {err}");
    }

    #[test]
    fn durations_accept_all_suffixes() {
        assert_eq!(parse_duration("90").unwrap(), 90.0);
        assert_eq!(parse_duration("90s").unwrap(), 90.0);
        assert_eq!(parse_duration("2m").unwrap(), 120.0);
        assert_eq!(parse_duration("1.5h").unwrap(), 5400.0);
        assert_eq!(parse_duration("1d").unwrap(), 86_400.0);
        assert!(parse_duration("-5").is_err());
    }
}
