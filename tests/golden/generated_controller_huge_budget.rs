// Generated by fgqos-tool for `huge`.
// 2 actions, 1 quality levels.

pub const N_ACTIONS: usize = 2;
pub const N_QUALITIES: usize = 1;

pub static SCHEDULE: [u32; 2] = [
    0, 1, 
];

/// `AV_BUDGET[q][i]`: max elapsed time admitting the all-q suffix at i.
pub static AV_BUDGET: [[i128; 3]; 1] = [
    [
        4999999999999999999, 9999999999999999999, 170141183460469231731687303715884105727, 
    ],
];

/// `WCMIN_BUDGET[i]`: max elapsed time admitting the all-qmin worst-case suffix.
pub static WCMIN_BUDGET: [i128; 3] = [
    4999999999999999998, 9999999999999999998, 170141183460469231731687303715884105727, 
];

pub static CWC_NEXT: [[u64; 2]; 1] = [
    [
        2, 2, 
    ],
];
pub static D_NEXT: [[u64; 2]; 1] = [
    [
        5000000000000000000, 10000000000000000000, 
    ],
];

/// `Qual_Const = Qual_Constav ∧ Qual_Constwc` at position `i`, elapsed `t`.
pub fn qual_const(qi: usize, i: usize, t: u64) -> bool {
    let av_ok = admits(AV_BUDGET[qi][i], t);
    let wc_ok = if i == N_ACTIONS {
        true
    } else {
        let cwc = CWC_NEXT[qi][i];
        let own = minus(deadline_bound(D_NEXT[qi][i]), cwc);
        let rest = minus(WCMIN_BUDGET[i + 1], cwc);
        admits(own.min(rest), t)
    };
    av_ok && wc_ok
}

/// Maximal admissible quality index, scanning downward.
pub fn max_feasible(i: usize, t: u64) -> Option<usize> {
    (0..N_QUALITIES).rev().find(|&qi| qual_const(qi, i, t))
}

fn deadline_bound(d: u64) -> i128 {
    if d == u64::MAX { i128::MAX } else { i128::from(d) }
}

/// Whether elapsed time `t` fits the slack `s` (`t <= s`).
fn admits(s: i128, t: u64) -> bool {
    s == i128::MAX || (t != u64::MAX && i128::from(t) <= s)
}

/// The slack `s` less the duration `c`; infinities absorb.
fn minus(s: i128, c: u64) -> i128 {
    if s == i128::MAX {
        s
    } else if s == i128::MIN || c == u64::MAX {
        i128::MIN
    } else {
        s - i128::from(c)
    }
}
