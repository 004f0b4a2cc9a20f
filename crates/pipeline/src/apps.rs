//! Application descriptions the pipeline can verify.
//!
//! An [`AppPipeline`] bundles everything the proof stages consume: the
//! littlec source, buffer sizes, encoded sample states/commands, a
//! probe that observes the specification's behavior (for
//! content-addressing the spec without hashing Rust code), and a
//! closure running the Starling software verification. The generic
//! constructor [`app_from_codec`] derives all of it from a
//! [`Codec`]/spec pair, so the three case studies and any test app are
//! described the same way.

use std::sync::Arc;

use parfait::lockstep::Codec;
use parfait::speccheck::{census, Flow};
use parfait::StateMachine;
use parfait_hsms::platform::AppSizes;
use parfait_hsms::{ecdsa, hasher, totp};
use parfait_knox2::HostOp;
use parfait_littlec::codegen::OptLevel;
use parfait_starling::{verify_app_traced, StarlingConfig, StarlingReport};
use parfait_telemetry::Telemetry;

use crate::artifact::{ArtifactHasher, ArtifactId};

/// The specification's observed behavior, fully encoded: the basis for
/// content-addressing the spec level. Two specs with identical traces
/// over the sample set hash identically — which is exactly the
/// granularity the cache needs, since the stages only ever exercise the
/// spec through these samples.
/// One observed spec transition, codec-encoded:
/// `(state, command, next_state, response)`.
pub type SpecRow = (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>);

pub struct SpecTrace {
    /// `(state, command, next_state, response)` rows, one per sampled
    /// (state × command) pair, all codec-encoded.
    pub rows: Vec<SpecRow>,
    /// How many sampled commands' responses depend on the state
    /// (the `speccheck` census).
    pub state_dependent: usize,
    /// How many distinct commands were sampled.
    pub commands: usize,
}

impl SpecTrace {
    /// Content hash of the observed behavior.
    pub fn digest(&self) -> ArtifactId {
        let mut h = ArtifactHasher::new("spec-trace");
        for (s, c, s2, r) in &self.rows {
            h.field("state", s).field("cmd", c).field("next", s2).field("resp", r);
        }
        h.field_u64("state_dependent", self.state_dependent as u64);
        h.field_u64("commands", self.commands as u64);
        h.finish()
    }
}

/// A closure running the Starling software verification.
pub type StarlingRunner = Box<dyn Fn(&Telemetry) -> Result<StarlingReport, String> + Send + Sync>;

/// A seeded rewrite of the compiled assembly text ([`Tamper::patch_asm`]).
pub type AsmPatch = Arc<dyn Fn(String) -> String + Send + Sync>;

/// A seeded mutation of the linked firmware image ([`Tamper::patch_firmware`]).
pub type FirmwarePatch = Arc<dyn Fn(&mut parfait_soc::Firmware) + Send + Sync>;

/// A deliberately seeded below-source fault, attached to an app by the
/// `parfait-adversary` mutation harness (DESIGN.md §12).
///
/// Production apps carry `None`. When set, the stages that build or
/// simulate below-source artifacts (equivalence, ctcheck, FPS) apply
/// the tamper and fold [`Tamper::fingerprint`] into their cache keys,
/// so a mutant can never alias the clean app's certificates. The
/// speccheck and lockstep stages deliberately ignore tampering: they
/// operate entirely above the tampered layers.
#[derive(Clone, Default)]
pub struct Tamper {
    /// Distinguishes this mutant's cache identity (and labels output).
    pub fingerprint: String,
    /// Rewrite the compiled assembly text before it is assembled
    /// (a seeded codegen/optimizer bug).
    pub patch_asm: Option<AsmPatch>,
    /// Mutate the linked firmware image (ROM bytes) before the SoC is
    /// built (a seeded encoder/ROM bug). FPS only.
    pub patch_firmware: Option<FirmwarePatch>,
    /// Seed a core micro-architectural fault in both worlds. FPS only.
    pub core_fault: Option<parfait_cores::SeededFault>,
    /// Seed a SoC/peripheral bug in both worlds. FPS only.
    pub soc_bug: Option<parfait_soc::SeededBug>,
    /// Seed the emulator-template desync bug (ideal world only).
    pub emulator_desync: bool,
}

impl Tamper {
    /// An empty tamper with the given cache-distinguishing fingerprint.
    pub fn new(fingerprint: &str) -> Tamper {
        Tamper { fingerprint: fingerprint.to_string(), ..Tamper::default() }
    }
}

/// Everything the pipeline needs to verify one application.
pub struct AppPipeline {
    /// Human-readable name (e.g. `"Password hasher"`).
    pub name: String,
    /// Stable machine-readable slug (certificates, cache keys, JSON).
    pub slug: String,
    /// The littlec source providing `handle`.
    pub source: String,
    /// Buffer sizes.
    pub sizes: AppSizes,
    /// Encoded secret ("provisioned") state for the real world.
    pub secret_state: Vec<u8>,
    /// Encoded public default state for the ideal world's dummy SoC.
    pub dummy_state: Vec<u8>,
    /// One representative expensive command encoding.
    pub workload: Vec<u8>,
    /// Optimization levels the app's software verification covers; the
    /// equivalence stage validates exactly these (plus the target
    /// level). ECDSA restricts this to `-O2`: its unoptimized asm
    /// exceeds the interpreter fuel budget.
    pub opt_levels: Vec<OptLevel>,
    /// Fingerprint of the Starling configuration (part of the lockstep
    /// stage's input hash — a changed config must re-verify).
    pub starling_fingerprint: String,
    /// Observe the spec's behavior over the sample set.
    pub spec_probe: Box<dyn Fn() -> SpecTrace + Send + Sync>,
    /// Run the Starling software verification.
    pub starling: StarlingRunner,
    /// Seeded below-source fault (`None` on every production app).
    pub tamper: Option<Tamper>,
}

impl AppPipeline {
    /// Attach a seeded fault (mutation testing only).
    pub fn with_tamper(mut self, tamper: Tamper) -> AppPipeline {
        self.tamper = Some(tamper);
        self
    }

    /// The standard adversarial host script the bench binaries measure:
    /// one expensive workload command followed by one invalid command.
    pub fn fps_script(&self) -> Vec<HostOp> {
        vec![
            HostOp::Command(self.workload.clone()),
            HostOp::Command(vec![0xEE; self.sizes.command]),
        ]
    }
}

/// Build an [`AppPipeline`] from a codec/spec pair plus sample
/// states, commands, and responses (the same inputs
/// [`parfait_starling::verify_app`] takes).
#[allow(clippy::too_many_arguments)]
pub fn app_from_codec<C>(
    name: &str,
    slug: &str,
    source: String,
    sizes: AppSizes,
    codec: C,
    spec: C::Spec,
    secret_state: <C::Spec as StateMachine>::State,
    workload: <C::Spec as StateMachine>::Command,
    states: Vec<<C::Spec as StateMachine>::State>,
    commands: Vec<<C::Spec as StateMachine>::Command>,
    responses: Vec<<C::Spec as StateMachine>::Response>,
    config: StarlingConfig,
) -> AppPipeline
where
    C: Codec<CI = Vec<u8>, RI = Vec<u8>, SI = Vec<u8>> + Send + Sync + 'static,
    C::Spec: Send + Sync + 'static,
    <C::Spec as StateMachine>::State: Clone + Send + Sync,
    <C::Spec as StateMachine>::Command: Clone + PartialEq + std::fmt::Debug + Send + Sync,
    <C::Spec as StateMachine>::Response: Clone + Send + Sync,
{
    struct Shared<C: Codec> {
        codec: C,
        spec: C::Spec,
        source: String,
        config: StarlingConfig,
        states: Vec<<C::Spec as StateMachine>::State>,
        commands: Vec<<C::Spec as StateMachine>::Command>,
        responses: Vec<<C::Spec as StateMachine>::Response>,
    }

    let secret = codec.encode_state(&secret_state);
    let dummy = codec.encode_state(&spec.init());
    let workload = codec.encode_command(&workload);
    let opt_levels = config.opt_levels.clone();
    let opts: Vec<String> = config.opt_levels.iter().map(|o| o.to_string()).collect();
    let starling_fingerprint = format!(
        "adversarial={} seed={:#x} opts={}",
        config.adversarial_inputs,
        config.seed,
        opts.join("|")
    );
    let shared = Arc::new(Shared {
        codec,
        spec,
        source: source.clone(),
        config,
        states,
        commands,
        responses,
    });

    let probe = Arc::clone(&shared);
    let spec_probe = Box::new(move || {
        // Probe from the initial state plus every sample state, so a
        // spec whose behavior differs anywhere over the sample grid
        // hashes differently.
        let mut states = vec![probe.spec.init()];
        states.extend(probe.states.iter().cloned());
        let mut rows = Vec::new();
        for st in &states {
            for cmd in &probe.commands {
                let (next, resp) = probe.spec.step(st, cmd);
                rows.push((
                    probe.codec.encode_state(st),
                    probe.codec.encode_command(cmd),
                    probe.codec.encode_state(&next),
                    probe.codec.encode_response(Some(&resp)),
                ));
            }
        }
        let dependent = census(&probe.spec, &states, &probe.commands)
            .into_iter()
            .filter(|e| matches!(e.flow, Flow::StateDependent { .. }))
            .count();
        SpecTrace { rows, state_dependent: dependent, commands: probe.commands.len() }
    });

    let run = Arc::clone(&shared);
    let starling = Box::new(move |tel: &Telemetry| {
        verify_app_traced(
            &run.codec,
            &run.spec,
            &run.source,
            &run.config,
            &run.states,
            &run.commands,
            &run.responses,
            tel,
        )
        .map_err(|e| e.to_string())
    });

    AppPipeline {
        name: name.to_string(),
        slug: slug.to_string(),
        source,
        sizes,
        secret_state: secret,
        dummy_state: dummy,
        workload,
        opt_levels,
        starling_fingerprint,
        spec_probe,
        starling,
        tamper: None,
    }
}

/// The three case-study applications (§8's evaluation subjects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StdApp {
    /// The ECDSA certificate signer.
    Ecdsa,
    /// The password hasher.
    Hasher,
    /// The one-time-password generator.
    Totp,
}

impl std::fmt::Display for StdApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StdApp::Ecdsa => f.write_str("ECDSA signer"),
            StdApp::Hasher => f.write_str("Password hasher"),
            StdApp::Totp => f.write_str("One-time password"),
        }
    }
}

impl StdApp {
    /// All case studies.
    pub const ALL: [StdApp; 3] = [StdApp::Ecdsa, StdApp::Hasher, StdApp::Totp];

    /// Look an app up by its command-line/certificate slug.
    pub fn from_slug(slug: &str) -> Option<StdApp> {
        match slug {
            "ecdsa" => Some(StdApp::Ecdsa),
            "hasher" => Some(StdApp::Hasher),
            "totp" => Some(StdApp::Totp),
            _ => None,
        }
    }

    /// The stable slug.
    pub fn slug(self) -> &'static str {
        match self {
            StdApp::Ecdsa => "ecdsa",
            StdApp::Hasher => "hasher",
            StdApp::Totp => "totp",
        }
    }

    /// The app's littlec source.
    pub fn source(self) -> String {
        match self {
            StdApp::Ecdsa => parfait_hsms::firmware::ecdsa_app_source(),
            StdApp::Hasher => parfait_hsms::firmware::hasher_app_source(),
            StdApp::Totp => totp::totp_app_source(),
        }
    }

    /// Buffer sizes.
    pub fn sizes(self) -> AppSizes {
        match self {
            StdApp::Ecdsa => AppSizes {
                state: ecdsa::STATE_SIZE,
                command: ecdsa::COMMAND_SIZE,
                response: ecdsa::RESPONSE_SIZE,
            },
            StdApp::Hasher => AppSizes {
                state: hasher::STATE_SIZE,
                command: hasher::COMMAND_SIZE,
                response: hasher::RESPONSE_SIZE,
            },
            StdApp::Totp => AppSizes {
                state: totp::STATE_SIZE,
                command: totp::COMMAND_SIZE,
                response: totp::RESPONSE_SIZE,
            },
        }
    }

    /// The full pipeline description, including the Starling runner and
    /// the sample states/commands used throughout the evaluation.
    pub fn pipeline(self) -> AppPipeline {
        match self {
            StdApp::Hasher => app_from_codec(
                &self.to_string(),
                self.slug(),
                self.source(),
                self.sizes(),
                hasher::HasherCodec,
                hasher::HasherSpec,
                hasher::HasherState { secret: [0x61; 32] },
                hasher::HasherCommand::Hash { message: [0x11; 32] },
                vec![hasher::HasherSpec.init(), hasher::HasherState { secret: [7; 32] }],
                vec![
                    hasher::HasherCommand::Initialize { secret: [1; 32] },
                    hasher::HasherCommand::Hash { message: [2; 32] },
                ],
                vec![hasher::HasherResponse::Initialized],
                StarlingConfig {
                    state_size: hasher::STATE_SIZE,
                    command_size: hasher::COMMAND_SIZE,
                    response_size: hasher::RESPONSE_SIZE,
                    ..StarlingConfig::default()
                },
            ),
            StdApp::Totp => app_from_codec(
                &self.to_string(),
                self.slug(),
                self.source(),
                self.sizes(),
                totp::TotpCodec,
                totp::TotpSpec,
                totp::TotpState { seed: [0x29; 32] },
                totp::TotpCommand::Code { counter: 42 },
                vec![totp::TotpSpec.init(), totp::TotpState { seed: [7; 32] }],
                vec![
                    totp::TotpCommand::Initialize { seed: [1; 32] },
                    totp::TotpCommand::Code { counter: 5 },
                ],
                vec![totp::TotpResponse::Initialized, totp::TotpResponse::Code(0)],
                StarlingConfig {
                    state_size: totp::STATE_SIZE,
                    command_size: totp::COMMAND_SIZE,
                    response_size: totp::RESPONSE_SIZE,
                    ..StarlingConfig::default()
                },
            ),
            StdApp::Ecdsa => app_from_codec(
                &self.to_string(),
                self.slug(),
                self.source(),
                self.sizes(),
                ecdsa::EcdsaCodec,
                ecdsa::EcdsaSpec,
                ecdsa::EcdsaState { prf_key: [0x13; 32], prf_counter: 0, sig_key: [0x57; 32] },
                ecdsa::EcdsaCommand::Sign { msg: [0x3C; 32] },
                vec![ecdsa::EcdsaState { prf_key: [7; 32], prf_counter: 0, sig_key: [9; 32] }],
                vec![ecdsa::EcdsaCommand::Initialize { prf_key: [1; 32], sig_key: [2; 32] }],
                vec![ecdsa::EcdsaResponse::Initialized],
                // ECDSA signing is ~1000x slower than hashing; a small
                // adversarial budget at -O2 only keeps the run tractable
                // (the hasher exercises the full default matrix).
                StarlingConfig {
                    state_size: ecdsa::STATE_SIZE,
                    command_size: ecdsa::COMMAND_SIZE,
                    response_size: ecdsa::RESPONSE_SIZE,
                    adversarial_inputs: 3,
                    opt_levels: vec![OptLevel::O2],
                    ..StarlingConfig::default()
                },
            ),
        }
    }

    /// A fixed provisioned state encoding (convenience for the run-time
    /// performance benchmarks, which need a SoC but no proof).
    pub fn secret_state(self) -> Vec<u8> {
        self.pipeline().secret_state
    }

    /// One representative expensive command encoding.
    pub fn workload_command(self) -> Vec<u8> {
        self.pipeline().workload
    }

    /// Build firmware at the given optimization level.
    pub fn firmware(self, opt: OptLevel) -> parfait_soc::Firmware {
        parfait_hsms::platform::build_firmware(&self.source(), self.sizes(), opt)
            .expect("firmware builds")
    }

    /// A provisioned SoC with the fixed secret state.
    pub fn soc(self, cpu: parfait_hsms::platform::Cpu, opt: OptLevel) -> parfait_soc::Soc {
        parfait_hsms::platform::make_soc(cpu, self.firmware(opt), &self.secret_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_roundtrip() {
        for app in StdApp::ALL {
            assert_eq!(StdApp::from_slug(app.slug()), Some(app));
        }
        assert_eq!(StdApp::from_slug("warp"), None);
    }

    #[test]
    fn spec_probe_is_deterministic_and_behavior_sensitive() {
        let a = StdApp::Hasher.pipeline();
        let t1 = (a.spec_probe)();
        let t2 = (a.spec_probe)();
        assert_eq!(t1.digest(), t2.digest());
        assert!(t1.commands > 0 && !t1.rows.is_empty());
        // A different app's spec behaves differently.
        let b = StdApp::Totp.pipeline();
        assert_ne!(t1.digest(), (b.spec_probe)().digest());
    }

    #[test]
    fn pipeline_encodings_match_sizes() {
        for app in StdApp::ALL {
            let p = app.pipeline();
            assert_eq!(p.secret_state.len(), p.sizes.state);
            assert_eq!(p.dummy_state.len(), p.sizes.state);
            assert_eq!(p.workload.len(), p.sizes.command);
            assert_eq!(p.fps_script().len(), 2);
        }
    }
}
