//! Minimum repeats and kernels of label sequences (§III-A and §IV).
//!
//! A sequence `L'` is a *repeat* of `L` if `L` is `L'` concatenated with
//! itself an integral number of times; the *minimum repeat* `MR(L)` is the
//! shortest repeat (Lemma 1: it is unique). A sequence has a *kernel* `L'`
//! and *tail* `L''` (Definition 3) if `L = (L')^h ∘ L''` with `h ≥ 2`,
//! `MR(L') = L'` and `L''` a proper prefix of `L'` (possibly empty); the
//! kernel is unique when it exists (Lemma 2).
//!
//! The paper computes minimum repeats with the KMP failure function (§V-B).
//! Here they come from a direct period check instead, which allocates
//! nothing: `MR(L)` has length `p`, the smallest divisor of `|L|` for which
//! `L` shifted by `p` equals itself (`L[p..] = L[..|L| - p]`). By the
//! Fine–Wilf theorem this is the KMP answer: when the smallest period `q`
//! does not divide `|L|`, no period smaller than `|L|` does.

use rlc_graph::Label;

/// Length of the minimum repeat of `seq`.
///
/// Returns 0 for the empty sequence (whose MR is the empty sequence `ε`).
pub fn minimum_repeat_len(seq: &[Label]) -> usize {
    let n = seq.len();
    (1..n)
        .find(|&p| n.is_multiple_of(p) && seq[p..] == seq[..n - p])
        .unwrap_or(n)
}

/// The minimum repeat `MR(seq)` as a prefix slice of `seq`.
pub fn minimum_repeat(seq: &[Label]) -> &[Label] {
    &seq[..minimum_repeat_len(seq)]
}

/// Whether `seq` is its own minimum repeat (`seq = MR(seq)`).
///
/// RLC query constraints are required to satisfy this (Definition 1): a
/// constraint like `(knows, knows)+` would additionally constrain the path
/// length, which the paper excludes (the even-path problem).
pub fn is_minimum_repeat(seq: &[Label]) -> bool {
    !seq.is_empty() && minimum_repeat_len(seq) == seq.len()
}

/// The kernel/tail decomposition of a sequence (Definition 3), if it exists.
///
/// Returns `(kernel, tail)` as prefix slices of `seq`: `seq = kernel^h ∘ tail`
/// with `h ≥ 2`, `MR(kernel) = kernel`, and `tail` a proper prefix of
/// `kernel` (possibly empty). By Lemma 2 the decomposition is unique; this
/// function returns it, preferring (as the lemma implies) the shortest kernel.
pub fn kernel_tail(seq: &[Label]) -> Option<(&[Label], &[Label])> {
    let n = seq.len();
    // Try candidate kernel lengths from shortest to longest; the first valid
    // decomposition is the unique one (Lemma 2).
    for c in 1..=n / 2 {
        let kernel = &seq[..c];
        if !is_minimum_repeat(kernel) {
            continue;
        }
        let h = n / c;
        if h < 2 {
            break;
        }
        // Check seq = kernel^h ∘ tail with tail a proper prefix of kernel.
        let repeats_ok = (0..h * c).all(|i| seq[i] == kernel[i % c]);
        if !repeats_ok {
            continue;
        }
        let tail = &seq[h * c..];
        let tail_ok = tail.len() < c && tail.iter().zip(kernel.iter()).all(|(a, b)| a == b);
        if tail_ok {
            return Some((kernel, tail));
        }
    }
    None
}

/// The *k-MR* of a path's label sequence, when it exists: `MR(seq)` if its
/// length is at most `k`, otherwise `None`.
///
/// This is the quantity the RLC index records (Definition 2). The name
/// mirrors the paper's "non-empty k-MR".
pub fn k_mr(seq: &[Label], k: usize) -> Option<&[Label]> {
    if seq.is_empty() {
        return None;
    }
    let len = minimum_repeat_len(seq);
    if len <= k {
        Some(&seq[..len])
    } else {
        None
    }
}

/// Checks the three-case characterization of Theorem 1 for a *split* path:
/// the first `2k` labels are `prefix`, the remainder is `rest`.
///
/// This is the lazy-KBS decision procedure: given the label sequence of the
/// first `2k` edges of a path and the label sequence of the rest, decide
/// whether the whole path has a non-empty k-MR and return it.
pub fn k_mr_by_theorem1(prefix: &[Label], rest: &[Label], k: usize) -> Option<Vec<Label>> {
    let total = prefix.len() + rest.len();
    if total == 0 {
        return None;
    }
    if total <= 2 * k {
        // Cases 1 and 2: the whole sequence is short enough to inspect.
        let mut whole = prefix.to_vec();
        whole.extend_from_slice(rest);
        return k_mr(&whole, k).map(|mr| mr.to_vec());
    }
    // Case 3: |p| > 2k, so prefix must have length exactly 2k.
    assert_eq!(prefix.len(), 2 * k, "case 3 requires a prefix of length 2k");
    let (kernel, tail) = kernel_tail(prefix)?;
    let mut continued = tail.to_vec();
    continued.extend_from_slice(rest);
    if minimum_repeat(&continued) == kernel {
        Some(kernel.to_vec())
    } else {
        None
    }
}

/// Enumerates every distinct minimum repeat of length at most `k` over an
/// alphabet of `label_count` labels.
///
/// The count of such sequences is the constant `C = O(|L|^k)` in the paper's
/// index-size analysis; this helper is used by tests and by the workload
/// generator when choosing query constraints uniformly over valid constraints.
pub fn enumerate_minimum_repeats(label_count: usize, k: usize) -> Vec<Vec<Label>> {
    let mut result = Vec::new();
    let mut current: Vec<Label> = Vec::new();
    fn recurse(
        label_count: usize,
        k: usize,
        current: &mut Vec<Label>,
        result: &mut Vec<Vec<Label>>,
    ) {
        if !current.is_empty() && is_minimum_repeat(current) {
            result.push(current.clone());
        }
        if current.len() == k {
            return;
        }
        for l in 0..label_count {
            current.push(Label::from_index(l));
            recurse(label_count, k, current, result);
            current.pop();
        }
    }
    recurse(label_count, k, &mut current, &mut result);
    result.sort();
    result.dedup();
    result
}

/// The number of distinct minimum repeats of length at most `k` over
/// `label_count` labels, computed by the paper's recurrence
/// `F(i) = |L|^i - Σ_{j | i, j ≠ i} F(j)` with `C = Σ_{i=1..k} F(i)`.
pub fn count_minimum_repeats(label_count: usize, k: usize) -> u64 {
    let mut f = vec![0u64; k + 1];
    for i in 1..=k {
        let mut value = (label_count as u64).pow(i as u32);
        for (j, f_j) in f.iter().enumerate().take(i).skip(1) {
            if i.is_multiple_of(j) {
                value -= f_j;
            }
        }
        f[i] = value;
    }
    f[1..=k].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ids: &[u16]) -> Vec<Label> {
        ids.iter().map(|&i| Label(i)).collect()
    }

    #[test]
    fn mr_of_simple_sequences() {
        assert_eq!(minimum_repeat_len(&seq(&[0, 0, 0])), 1);
        assert_eq!(minimum_repeat_len(&seq(&[0, 1, 0, 1])), 2);
        assert_eq!(minimum_repeat_len(&seq(&[0, 1, 2])), 3);
        assert_eq!(minimum_repeat_len(&seq(&[0, 1, 0])), 3);
        assert_eq!(minimum_repeat_len(&seq(&[0])), 1);
        assert_eq!(minimum_repeat_len(&[]), 0);
    }

    #[test]
    fn mr_of_paper_example() {
        // MR(knows, worksFor, knows, worksFor) = (knows, worksFor) — the
        // Fig. 1 path from P10 to P16 in §III-A.
        let knows = Label(0);
        let works_for = Label(1);
        let s = vec![knows, works_for, knows, works_for];
        assert_eq!(minimum_repeat(&s), &[knows, works_for][..]);
    }

    #[test]
    fn mr_is_its_own_mr() {
        for candidate in enumerate_minimum_repeats(3, 3) {
            assert!(is_minimum_repeat(&candidate));
            assert_eq!(minimum_repeat(&candidate), candidate.as_slice());
        }
    }

    #[test]
    fn non_trivial_period_that_does_not_divide_length() {
        // (a, b, a) has border "a" giving period 2, which does not divide 3.
        assert_eq!(minimum_repeat_len(&seq(&[0, 1, 0])), 3);
        // (a, a, b, a, a) has border (a,a) giving period 3, not dividing 5.
        assert_eq!(minimum_repeat_len(&seq(&[0, 0, 1, 0, 0])), 5);
    }

    #[test]
    fn period_check_matches_brute_force_on_exhaustive_small_sequences() {
        // The MR length is the smallest p dividing n such that seq is seq[..p]
        // repeated n / p times; compare against that definition directly.
        for len in 0..=8usize {
            for code in 0..(1u32 << len) {
                let s: Vec<Label> = (0..len).map(|i| Label(((code >> i) & 1) as u16)).collect();
                let brute = (1..=len)
                    .find(|&p| len.is_multiple_of(p) && (0..len).all(|i| s[i] == s[i % p]))
                    .unwrap_or(0);
                assert_eq!(minimum_repeat_len(&s), brute, "sequence {s:?}");
            }
        }
    }

    #[test]
    fn kernel_tail_basic() {
        // (a a a a) = (a)^4 ∘ ε
        let aaaa = seq(&[0, 0, 0, 0]);
        let (kernel, tail) = kernel_tail(&aaaa).unwrap();
        assert_eq!(kernel, &seq(&[0])[..]);
        assert!(tail.is_empty());

        // (a b a b a) = (a b)^2 ∘ (a)
        let s = seq(&[0, 1, 0, 1, 0]);
        let (kernel, tail) = kernel_tail(&s).unwrap();
        assert_eq!(kernel, &seq(&[0, 1])[..]);
        assert_eq!(tail, &seq(&[0])[..]);

        // (a b c a) has no kernel: (a b c) appears only once.
        assert!(kernel_tail(&seq(&[0, 1, 2, 0])).is_none());

        // (a b) has no kernel (h must be at least 2).
        assert!(kernel_tail(&seq(&[0, 1])).is_none());
    }

    #[test]
    fn kernel_is_minimum_repeat_itself() {
        // (a a a a b a) : candidate (a a) is not an MR so it cannot be a
        // kernel even though (a a)^2 is a prefix; and (a) repeated 4 times
        // followed by (b a) fails the proper-prefix requirement, so there is
        // no kernel at all.
        assert!(kernel_tail(&seq(&[0, 0, 0, 0, 1, 0])).is_none());
    }

    #[test]
    fn kernel_uniqueness_on_exhaustive_small_sequences() {
        // Lemma 2: brute-force check that at most one valid decomposition
        // exists for every sequence of length up to 8 over 2 labels.
        for len in 1..=8usize {
            for code in 0..(1u32 << len) {
                let s: Vec<Label> = (0..len).map(|i| Label(((code >> i) & 1) as u16)).collect();
                let mut decompositions = Vec::new();
                for c in 1..=len / 2 {
                    let kernel = &s[..c];
                    if !is_minimum_repeat(kernel) {
                        continue;
                    }
                    let h = len / c;
                    if h < 2 {
                        continue;
                    }
                    let body_ok = (0..h * c).all(|i| s[i] == kernel[i % c]);
                    let tail = &s[h * c..];
                    let tail_ok =
                        tail.len() < c && tail.iter().zip(kernel.iter()).all(|(a, b)| a == b);
                    if body_ok && tail_ok {
                        decompositions.push(c);
                    }
                }
                assert!(
                    decompositions.len() <= 1,
                    "sequence {s:?} has multiple kernels: {decompositions:?}"
                );
                match kernel_tail(&s) {
                    Some((kernel, _)) => assert_eq!(decompositions, vec![kernel.len()]),
                    None => assert!(decompositions.is_empty()),
                }
            }
        }
    }

    #[test]
    fn k_mr_respects_bound() {
        let s = seq(&[0, 1, 2, 0, 1, 2]);
        assert_eq!(k_mr(&s, 3), Some(&seq(&[0, 1, 2])[..]));
        assert_eq!(k_mr(&s, 2), None);
        assert_eq!(k_mr(&[], 2), None);
    }

    #[test]
    fn theorem1_case1_and_2() {
        // Case 1: short path.
        assert_eq!(k_mr_by_theorem1(&seq(&[0, 1]), &[], 2), Some(seq(&[0, 1])));
        // Case 2: k < |p| <= 2k with |MR| <= k.
        assert_eq!(
            k_mr_by_theorem1(&seq(&[0, 1, 0]), &seq(&[1]), 2),
            Some(seq(&[0, 1]))
        );
        // Case 2 negative: MR longer than k.
        assert_eq!(k_mr_by_theorem1(&seq(&[0, 1, 2]), &seq(&[0]), 2), None);
    }

    #[test]
    fn theorem1_case3() {
        let k = 2;
        // prefix of length 2k = 4: (a b a b), kernel (a b), tail ε;
        // rest (a b): MR(tail ∘ rest) = (a b) = kernel → k-MR is (a b).
        assert_eq!(
            k_mr_by_theorem1(&seq(&[0, 1, 0, 1]), &seq(&[0, 1]), k),
            Some(seq(&[0, 1]))
        );
        // rest (b a): MR(tail ∘ rest) = (b a) ≠ kernel → no k-MR.
        assert_eq!(
            k_mr_by_theorem1(&seq(&[0, 1, 0, 1]), &seq(&[1, 0]), k),
            None
        );
        // prefix without kernel → no k-MR regardless of rest.
        assert_eq!(k_mr_by_theorem1(&seq(&[0, 1, 2, 0]), &seq(&[1]), 2), None);
    }

    #[test]
    fn theorem1_agrees_with_direct_mr_on_long_paths() {
        // Cross-check Case 3 against computing the MR of the whole sequence.
        let k = 2;
        for len in (2 * k + 1)..=10 {
            for code in 0..(1u32 << len) {
                let s: Vec<Label> = (0..len).map(|i| Label(((code >> i) & 1) as u16)).collect();
                let expected = k_mr(&s, k).map(|mr| mr.to_vec());
                let got = k_mr_by_theorem1(&s[..2 * k], &s[2 * k..], k);
                assert_eq!(got, expected, "sequence {s:?}");
            }
        }
    }

    #[test]
    fn enumerate_and_count_agree() {
        for labels in 1..=4usize {
            for k in 1..=3usize {
                let enumerated = enumerate_minimum_repeats(labels, k);
                assert_eq!(
                    enumerated.len() as u64,
                    count_minimum_repeats(labels, k),
                    "|L|={labels}, k={k}"
                );
            }
        }
    }

    #[test]
    fn count_matches_paper_formula_examples() {
        // F(1) = |L|, F(2) = |L|^2 - |L|.
        assert_eq!(count_minimum_repeats(8, 1), 8);
        assert_eq!(count_minimum_repeats(8, 2), 8 + 64 - 8);
        // k = 3: F(3) = |L|^3 - F(1).
        assert_eq!(count_minimum_repeats(2, 3), 2 + 2 + (8 - 2));
    }
}
