//! The `repro` binary's exit status: 0 when an artifact's failure
//! reproduces, 2 when the artifact cannot be loaded — a crafted value, or
//! an earlier writer's schema, is refused at load instead of panicking or
//! misleading the replay (which would read as a divergent replay, 1).

use std::path::{Path, PathBuf};
use std::process::Command;

use dsr::DsrConfig;
use runner::{run_campaign, CampaignConfig, FaultEvent, FaultPlan, ScenarioConfig};
use sim_core::{SimDuration, SimTime};

fn repro(path: &Path) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg(path).output().expect("repro runs");
    out.status.code()
}

#[test]
fn repro_exits_0_on_a_written_artifact_and_2_on_one_it_cannot_load() {
    let dir = std::env::temp_dir().join(format!("repro-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 0);
    cfg.duration = SimDuration::from_secs(4.0);
    cfg.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(1.0), only_seed: None }],
    };
    let campaign = CampaignConfig { forensics_dir: Some(dir.clone()), ..CampaignConfig::default() };
    assert_eq!(run_campaign(&cfg, &[1], &campaign).failures.len(), 1);
    let artifacts: Vec<PathBuf> =
        std::fs::read_dir(&dir).expect("forensics dir").map(|e| e.expect("entry").path()).collect();
    let [artifact] = artifacts.as_slice() else { panic!("one artifact: {artifacts:?}") };
    assert_eq!(repro(artifact), Some(0), "the recorded panic reproduces");

    // Values the replay would panic on: an oversize packet, a rate that is
    // not finite and positive, more flows than the 3 nodes form pairs.
    let text = std::fs::read_to_string(artifact).expect("artifact text");
    for (i, (key, value)) in [
        ("traffic.packet_bytes", "65536"),
        ("traffic.rate_pps", "0.0"),
        ("traffic.rate_pps", "NaN"),
        ("traffic.num_flows", "7"),
    ]
    .into_iter()
    .enumerate()
    {
        let line = text.lines().find(|l| l.starts_with(&format!("{key} = "))).expect("key");
        let crafted = dir.join(format!("crafted_{i}.txt"));
        std::fs::write(&crafted, text.replace(line, &format!("{key} = {value}"))).expect("write");
        assert_eq!(repro(&crafted), Some(2), "{key} = {value} is refused at load");
    }

    // An earlier writer's schema is refused, not translated.
    // 1023 is `mac::config::CW_MAX`: the value the retired key always held.
    let cw_max = "replayable = true\nmac.cw_max = 1023\n";
    for (name, earlier) in [
        ("v1.txt", text.replace("dsr-forensics v2", "dsr-forensics v1")),
        ("cw_max.txt", text.replacen("replayable = true\n", cw_max, 1)),
        (
            "paired.txt",
            text.replacen("replayable = true\n", "replayable = true\npaired_arrivals = true\n", 1),
        ),
        ("link_blackout.txt", text.replacen("fault.0 = panic\n", "fault.0 = link_blackout\n", 1)),
        // The airtime settings, where the writer before they became
        // constants put them, each at the value it always held.
        (
            "retired_mac_plcp.txt",
            text.replacen(
                "dsr.negative_cache = false\nradio.",
                "dsr.negative_cache = false\nmac.plcp_overhead_ns = 192000\nradio.",
                1,
            ),
        ),
        (
            "retired_mac_rate.txt",
            text.replacen(
                "dsr.negative_cache = false\nradio.",
                "dsr.negative_cache = false\nmac.data_rate_bps = 2000000.0\nradio.",
                1,
            ),
        ),
        // Where the writer before the setting's removal put it.
        (
            "replies_from_cache.txt",
            text.replacen(
                "dsr.cache_capacity = ",
                "dsr.replies_from_cache = true\ndsr.cache_capacity = ",
                1,
            ),
        ),
        (
            "cache_organization.txt",
            text.replacen(
                "dsr.wider_error_notification = ",
                "dsr.cache_organization = path\ndsr.wider_error_notification = ",
                1,
            ),
        ),
        (
            "preemptive.txt",
            text.replacen(
                "dsr.negative_cache = false\n",
                "dsr.negative_cache = false\ndsr.preemptive = true\ndsr.preemptive.threshold_w = 7.304e-10\n",
                1,
            ),
        ),
        (
            "wider_error_rebroadcast.txt",
            text.replacen(
                "dsr.wider_error_notification = false\ndsr.expiry = ",
                "dsr.wider_error_notification = false\n\
                 dsr.wider_error_rebroadcast = cached_and_used\ndsr.expiry = ",
                1,
            ),
        ),
        // The adaptive policy's settings, before they became constants.
        (
            "adaptive_alpha.txt",
            text.replacen(
                "dsr.expiry = none\n",
                "dsr.expiry = adaptive\ndsr.expiry.alpha = 1.25\ndsr.expiry.quiet_term = true\n",
                1,
            ),
        ),
        (
            "adaptive_quiet_term.txt",
            text.replacen(
                "dsr.expiry = none\n",
                "dsr.expiry = adaptive\ndsr.expiry.quiet_term = true\n",
                1,
            ),
        ),
        (
            "suppression.txt",
            text.replacen(
                "dsr.negative_cache = false\n",
                "dsr.negative_cache = false\ndsr.suppression = true\n",
                1,
            ),
        ),
    ] {
        assert_ne!(earlier, text, "{name}");
        std::fs::write(dir.join(name), earlier).expect("write");
        assert_eq!(repro(&dir.join(name)), Some(2), "{name} is refused at load");
    }

    assert_eq!(repro(&dir.join("missing.txt")), Some(2), "a missing file");
    let _ = std::fs::remove_dir_all(&dir);
}
