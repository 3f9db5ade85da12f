//! Randomized round-trip tests on the compact branch-point encoding,
//! driven by the deterministic [`zbp_support::rng::SmallRng`]: arbitrary
//! instruction streams mixing every escape the format defines must
//! decode back to the exact record stream, and the encoding must earn
//! its keep (at most a third of the record bytes) on the figure-2
//! workloads it was built for.

use zbp_support::rng::SmallRng;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::{BranchKind, BranchRec, CompactTrace, InstAddr, Trace, TraceInstr, VecTrace};

const LENS: [u8; 3] = [2, 4, 6];
const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::Indirect,
];

fn roundtrip(instrs: Vec<TraceInstr>) {
    let vt = VecTrace::new("prop", instrs);
    let ct = CompactTrace::capture(&vt).expect("stream must be encodable");
    assert_eq!(ct.len(), vt.len());
    let decoded: Vec<TraceInstr> = ct.iter().collect();
    assert_eq!(decoded, vt.records(), "compact round trip diverged");
}

/// A target address for a branch at `addr`: near (same 4 KB block),
/// forward or backward across block boundaries, or beyond the ±2 GiB
/// delta range (forcing the far-word escape).
fn random_target(rng: &mut SmallRng, addr: InstAddr) -> InstAddr {
    let base = addr.raw();
    let t = match rng.random_range(0u32..4) {
        0 => base ^ rng.random_range(2u64..4096),
        1 => base.wrapping_add(rng.random_range(4096u64..1 << 24)),
        2 => base.wrapping_sub(rng.random_range(4096u64..1 << 24)),
        _ => base.wrapping_add(0x1_0000_0000_0000 + rng.random_range(0u64..1 << 20)),
    };
    // Instruction addresses are halfword-aligned on z.
    InstAddr::new(t & !1)
}

/// One random stream exercising runs (occasionally longer than 255
/// instructions), every branch kind, cross-block and far targets,
/// wrong-path markers and asynchronous discontinuities.
fn random_stream(rng: &mut SmallRng, segments: usize) -> Vec<TraceInstr> {
    let mut v = Vec::new();
    let mut addr = InstAddr::new(rng.random_range(0x1000u64..1 << 40) & !1);
    for _ in 0..segments {
        let run = match rng.random_range(0u32..10) {
            0..=6 => rng.random_range(0u64..12),
            7 | 8 => rng.random_range(12u64..80),
            _ => rng.random_range(256u64..600),
        };
        for _ in 0..run {
            let len = LENS[rng.random_range(0usize..3)];
            v.push(TraceInstr::plain(addr, len));
            addr = addr.add(u64::from(len));
        }
        match rng.random_range(0u32..10) {
            // A resolved branch, taken or not.
            0..=5 => {
                let len = LENS[rng.random_range(0usize..3)];
                let kind = KINDS[rng.random_range(0usize..5)];
                let target = random_target(rng, addr);
                let taken = rng.random::<bool>();
                let rec = if taken {
                    BranchRec::taken(kind, target)
                } else {
                    BranchRec::not_taken(target)
                };
                v.push(TraceInstr::branch(addr, len, rec));
                addr = if taken { target } else { addr.add(u64::from(len)) };
            }
            // A burst of wrong-path records; architectural flow resumes
            // at the same address afterwards.
            6 | 7 => {
                let mut off = random_target(rng, addr);
                for _ in 0..rng.random_range(1u32..5) {
                    let len = LENS[rng.random_range(0usize..3)];
                    let i = if rng.random::<bool>() {
                        let rec = BranchRec::taken(
                            KINDS[rng.random_range(0usize..5)],
                            random_target(rng, off),
                        );
                        TraceInstr::branch(off, len, rec)
                    } else {
                        TraceInstr::plain(off, len)
                    };
                    v.push(i.wrong_path());
                    off = off.add(u64::from(len));
                }
            }
            // An asynchronous discontinuity: the stream jumps with no
            // branch record at all.
            _ => addr = random_target(rng, addr),
        }
    }
    v
}

#[test]
fn arbitrary_streams_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0);
    for case in 0..24 {
        let segments = 4 + case * 3;
        roundtrip(random_stream(&mut rng, segments));
    }
}

#[test]
fn chunked_captures_concatenate_to_the_stream_and_cut_after_retired_branches() {
    use zbp_trace::CompactParts;
    let mut rng = SmallRng::seed_from_u64(0xC2);
    for case in 0..12 {
        let stream = random_stream(&mut rng, 10 + case * 4);
        let whole = CompactTrace::capture(&VecTrace::new("s", stream.clone())).unwrap();
        for budget in [0u64, 1, 13, 64, whole.bytes() / 2, whole.bytes(), u64::MAX] {
            let mut instrs = stream.iter().copied();
            let mut parts = CompactParts::default();
            let mut replayed: Vec<TraceInstr> = Vec::new();
            let mut chunks = 0;
            loop {
                let (chunk, ended) = CompactTrace::capture_chunk_into(
                    "s",
                    &mut instrs,
                    stream.len() as u64,
                    budget,
                    parts,
                )
                .expect("encodable");
                chunks += 1;
                let records: Vec<TraceInstr> = chunk.iter().collect();
                if !ended {
                    let last = records.last().expect("a cut chunk holds its branch");
                    assert!(
                        last.branch.is_some() && !last.wrong_path,
                        "case {case}: cut at {last:?}"
                    );
                    assert!(chunk.bytes() > budget, "case {case}: cut before the budget");
                }
                replayed.extend(records);
                parts = chunk.into_parts().expect("sole owner");
                if ended {
                    break;
                }
            }
            assert_eq!(replayed, stream, "case {case}, budget {budget}: chunks diverged");
            if budget >= whole.bytes() {
                assert_eq!(chunks, 1, "case {case}: a stream within budget is one chunk");
            }
        }
    }
}

#[test]
fn long_runs_cross_length_code_byte_boundaries() {
    // Runs far longer than 255 instructions, with lengths chosen so runs
    // end at every phase of the packed 4-codes-per-byte stream.
    let mut rng = SmallRng::seed_from_u64(0xC1);
    for _ in 0..6 {
        let mut v = Vec::new();
        let mut addr = InstAddr::new(0x10_0000);
        for _ in 0..3 {
            for _ in 0..rng.random_range(300u64..1200) {
                let len = LENS[rng.random_range(0usize..3)];
                v.push(TraceInstr::plain(addr, len));
                addr = addr.add(u64::from(len));
            }
            let target =
                InstAddr::new(addr.raw().wrapping_sub(rng.random_range(4096u64..65536)) & !1);
            v.push(TraceInstr::branch(addr, 4, BranchRec::taken(BranchKind::Conditional, target)));
            addr = target;
        }
        roundtrip(v);
    }
}

#[test]
fn backward_and_forward_targets_span_blocks() {
    // A branch ping-ponging across 4 KB block boundaries in both
    // directions, plus one far target outside the ±2 GiB delta range.
    let mut v = Vec::new();
    let mut addr = InstAddr::new(0x80_0000);
    for hop in [4096i64, -4096, 12_288, -20_480, 1 << 30, -(1 << 30), 0x7FFF_FFFE, -0x7FFF_FFFE] {
        v.push(TraceInstr::plain(addr, 4));
        addr = addr.add(4);
        let target = InstAddr::new(addr.raw().wrapping_add(hop as u64) & !1);
        v.push(TraceInstr::branch(addr, 6, BranchRec::taken(BranchKind::Unconditional, target)));
        addr = target;
    }
    let far = InstAddr::new(addr.raw().wrapping_add(0x2_0000_0000) & !1);
    v.push(TraceInstr::branch(addr, 6, BranchRec::taken(BranchKind::Call, far)));
    v.push(TraceInstr::plain(far, 2));
    roundtrip(v);
}

#[test]
fn generator_profiles_roundtrip() {
    // The real consumers: every Table 4 profile's synthetic stream must
    // compact-encode and decode back to the generator's exact records.
    for profile in WorkloadProfile::all_table4() {
        let gen = profile.build_with_len(0xEC12, 20_000);
        let ct = CompactTrace::capture(&gen).expect("generator streams are encodable");
        assert_eq!(ct.len(), gen.len());
        assert!(ct.iter().eq(gen.iter()), "compact round trip diverged for profile {}", gen.name());
    }
}

#[test]
fn compact_is_under_a_third_of_record_bytes_on_fig2_workloads() {
    // The headline claim of the encoding: on the figure-2 grid's
    // workloads it stores the stream in less than a third of the record
    // form's bytes (in practice ~10x smaller at ~1-in-5 branch density).
    let record_bytes_per_instr = std::mem::size_of::<TraceInstr>() as u64;
    for profile in WorkloadProfile::all_table4() {
        let gen = profile.build_with_len(0xEC12, 50_000);
        let record_bytes = gen.len() * record_bytes_per_instr;
        let ct = CompactTrace::capture(&gen).expect("encodable");
        assert!(
            ct.bytes() * 3 < record_bytes,
            "{}: compact {} B vs record {} B",
            gen.name(),
            ct.bytes(),
            record_bytes,
        );
    }
}
