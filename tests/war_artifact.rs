//! The WAR digest is content-addressed: packaging reproduces the golden
//! canonical WAR in `tests/golden/` (regenerate with `UPDATE_GOLDEN=1
//! cargo test --test war_artifact`), the checked-in bytes unpack in any
//! process, and every content change moves the digest.

use cornet::catalog::{builtin_catalog, BlockSpec, Catalog, Phase};
use cornet::types::ParamType;
use cornet::workflow::builtin::{config_change_workflow, software_upgrade_workflow};
use cornet::workflow::{Designer, NodeKind, WarArtifact, WarManifest, Workflow};
use proptest::prelude::*;

#[test]
fn software_upgrade_war_matches_golden() {
    let cat = builtin_catalog();
    let wf = software_upgrade_workflow(&cat);
    let war = WarArtifact::package(&wf, &cat).unwrap();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let payload_path = format!("{dir}/software_upgrade.war.json");
    let manifest_path = format!("{dir}/software_upgrade.manifest.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&payload_path, &war.payload).expect("golden payload written");
        std::fs::write(&manifest_path, war.manifest.encode()).expect("golden manifest written");
        return;
    }

    let read = |path: &str| std::fs::read(path).expect("golden present (UPDATE_GOLDEN=1)");
    let golden = WarArtifact {
        payload: read(&payload_path),
        manifest: WarManifest::decode(&String::from_utf8(read(&manifest_path)).unwrap()).unwrap(),
    };
    assert_eq!(war, golden, "WAR encoding changed");
    assert_eq!(golden.unpack().unwrap(), wf);
    let other = WarArtifact::package(&config_change_workflow(&cat), &cat).unwrap();
    assert_ne!(other.manifest.digest, golden.manifest.digest);
}

/// Four interchangeable probe blocks: same signature, no side effects, so
/// swapping one for another keeps the workflow valid.
fn probe_catalog() -> Catalog {
    let mut cat = builtin_catalog();
    for i in 0..4 {
        cat.register(
            BlockSpec::new(format!("probe_{i}"), Phase::DesignOrchestration, "p", true)
                .input("node", ParamType::String)
                .output("ok", ParamType::Bool),
        );
    }
    cat
}

/// `start → probe_a → ok? → yes: probe_b / no: probe_c → end`.
fn probe_workflow(cat: &Catalog, name: &str, blocks: [usize; 3]) -> Workflow {
    let mut d = Designer::new(cat, name);
    d.input("node", ParamType::String);
    let start = d.start();
    let first = d.task(&format!("probe_{}", blocks[0])).unwrap();
    let ok = d.decision("ok");
    let yes = d.task(&format!("probe_{}", blocks[1])).unwrap();
    let no = d.task(&format!("probe_{}", blocks[2])).unwrap();
    let end = d.end();
    d.connect(start, first)
        .connect(first, ok)
        .connect_if(ok, yes, true)
        .connect_if(ok, no, false)
        .connect(yes, end)
        .connect(no, end);
    d.build()
}

fn digest(wf: &Workflow, cat: &Catalog) -> String {
    let war = WarArtifact::package(wf, cat).unwrap();
    assert_eq!(&war.unpack().unwrap(), wf);
    war.manifest.digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digest_tracks_every_content_change(
        blocks in (0usize..4, 0usize..4, 0usize..4),
        node in 0usize..6,
        shift in 1usize..4,
    ) {
        let cat = probe_catalog();
        let base = probe_workflow(&cat, "probe_flow", [blocks.0, blocks.1, blocks.2]);
        let base_digest = digest(&base, &cat);
        let mut changed = vec![base.clone(); 5];
        changed[0].name.push('x');
        changed[1].nodes[node].label.push('x');
        let task = [1, 3, 4][node % 3];
        changed[2].nodes[task].kind = NodeKind::Task {
            block: format!("probe_{}", ([blocks.0, blocks.1, blocks.2][node % 3] + shift) % 4),
        };
        for e in &mut changed[3].edges {
            e.guard = e.guard.map(|g| !g);
        }
        changed[4].set_backout(probe_workflow(&cat, "backout", [0, 1, 2]));
        prop_assert_eq!(digest(&base.clone(), &cat), base_digest.clone());
        for wf in &changed {
            prop_assert_ne!(digest(wf, &cat), base_digest.clone());
        }
    }
}
