//! Signature weight assignment, encoding, and Algorithm-1 decoding.
//!
//! The schema assigns each load a *multiplier* (the running product of the
//! candidate cardinalities of all earlier loads in the thread, §3.1 step 2)
//! so the per-thread signature `Σ indexᵢ · multiplierᵢ` is a mixed-radix
//! number with a 1:1 mapping to observed reads-from sets. When the running
//! product would overflow the target register width, a fresh signature word
//! is started and the multipliers reset (§3.2), yielding multi-word
//! signatures for high-contention tests.

use crate::CandidateAnalysis;
use mtc_isa::{OpId, Program, ReadsFrom, Tid, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-load encoding slot: which signature word the load contributes to,
/// with what weight multiplier, over which candidate list.
#[derive(Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct LoadSlot {
    /// The load instruction.
    pub op: OpId,
    /// Values this load may observe, in canonical candidate order; the
    /// observed value's *position* in this list is what gets encoded.
    pub candidates: Vec<Value>,
    /// Index of the signature word (within the thread) this load updates.
    pub word: usize,
    /// Weight multiplier: the observed candidate index is scaled by this
    /// before accumulation.
    pub multiplier: u64,
}

impl LoadSlot {
    /// Number of distinct values the load may observe.
    pub fn cardinality(&self) -> usize {
        self.candidates.len()
    }
}

/// The signature layout of one thread.
#[derive(Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct ThreadSchema {
    /// The thread this schema instruments.
    pub tid: Tid,
    /// One slot per load, in program order.
    pub loads: Vec<LoadSlot>,
    /// Number of signature words the thread needs (≥ 1; a thread with no
    /// loads still stores a constant-zero signature word, like thread 2 of
    /// the paper's Figure 4).
    pub num_words: usize,
}

/// Complete signature schema for an instrumented program.
///
/// Built by [`SignatureSchema::build`]; provides bit-exact
/// [`encode`](SignatureSchema::encode) (what the instrumented branch chains
/// compute at runtime) and [`decode`](SignatureSchema::decode)
/// (Algorithm 1).
#[derive(Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct SignatureSchema {
    threads: Vec<ThreadSchema>,
    register_bits: u32,
    /// Global load-slot range of every signature word: word `k`'s slots are
    /// `word_load_start[k]..word_load_start[k + 1]` in thread-major slot
    /// order. Derived from `threads` at build time (absent after
    /// deserialization; [`decode_indices_delta`](Self::decode_indices_delta)
    /// falls back to scanning `loads` when empty).
    #[serde(skip)]
    word_load_start: Vec<u32>,
    /// Per-slot `ceil(2^64 / multiplier)` reciprocals (0 for multiplier 1),
    /// thread-major, populated only when `register_bits <= 32`: with
    /// remainders below 2^32 the shifted 128-bit product reproduces the
    /// quotient exactly, replacing the serial division chain with pipelined
    /// multiplies. Empty (division fallback) otherwise and after
    /// deserialization.
    #[serde(skip)]
    slot_magic: Vec<u64>,
}

/// Peels one load's candidate index off `rem` — `(q, rem) = (rem / mult,
/// rem % mult)` — using the precomputed reciprocal when available.
#[inline(always)]
fn decode_slot(rem: &mut u64, mult: u64, magic: u64) -> u64 {
    if magic != 0 {
        // Exact for rem < 2^32: the rounded-up reciprocal's error term
        // stays below 1/mult (Granlund & Montgomery). Corrupt words can
        // exceed 2^32; there the estimate only overshoots — the word's top
        // slot still trips the caller's out-of-range flag (its true index
        // already exceeds the cardinality) and the error is re-derived by
        // the exact cold path, so wrapping garbage in `rem` is never
        // observed.
        let q = ((u128::from(*rem) * u128::from(magic)) >> 64) as u64;
        *rem = rem.wrapping_sub(q.wrapping_mul(mult));
        q
    } else if mult == 1 {
        let q = *rem;
        *rem = 0;
        q
    } else {
        let q = *rem / mult;
        *rem %= mult;
        q
    }
}

/// Error raised while encoding an observation — the runtime equivalent is
/// the assertion at the tail of each instrumented branch chain (§3.1),
/// which catches impossible values "instantly without running a
/// constraint-graph checking".
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum EncodeError {
    /// A load observed a value outside its static candidate set. Either the
    /// hardware violated per-location coherence/program order outright, or
    /// static pruning was too aggressive.
    UnexpectedValue {
        /// The load whose assertion fired.
        load: OpId,
        /// The impossible value it observed.
        value: Value,
    },
    /// The observation is missing a value for an instrumented load.
    MissingLoad {
        /// The unobserved load.
        load: OpId,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnexpectedValue { load, value } => write!(
                f,
                "assertion: load {load} observed {value}, which no interleaving allows"
            ),
            EncodeError::MissingLoad { load } => {
                write!(f, "observation records no value for load {load}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error raised while decoding a signature that no execution could have
/// produced (corruption or schema mismatch).
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum DecodeError {
    /// The signature has the wrong number of words for this schema.
    WrongLength {
        /// Words the schema expects.
        expected: usize,
        /// Words the signature carries.
        found: usize,
    },
    /// A decoded candidate index exceeded the load's cardinality.
    IndexOutOfRange {
        /// The load being decoded.
        load: OpId,
        /// The out-of-range index.
        index: u64,
    },
    /// Bits remained in a signature word after all its loads were decoded.
    ResidualBits {
        /// Thread whose word was corrupt.
        tid: Tid,
        /// Word index within the thread.
        word: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::WrongLength { expected, found } => {
                write!(f, "signature has {found} words, schema expects {expected}")
            }
            DecodeError::IndexOutOfRange { load, index } => {
                write!(f, "decoded index {index} out of range for load {load}")
            }
            DecodeError::ResidualBits { tid, word } => {
                write!(f, "residual bits left in word {word} of {tid}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl SignatureSchema {
    /// Builds the schema for `program` from its candidate `analysis`,
    /// targeting `register_bits`-wide signature words (32 for ARMv7, 64 for
    /// x86-64; §3.2).
    ///
    /// ```
    /// use mtc_gen::{generate, TestConfig};
    /// use mtc_instr::{analyze, SignatureSchema, SourcePruning};
    /// use mtc_isa::IsaKind;
    ///
    /// let program = generate(&TestConfig::new(IsaKind::Arm, 2, 30, 16));
    /// let analysis = analyze(&program, &SourcePruning::none());
    /// let schema = SignatureSchema::build(&program, &analysis, 32);
    /// // One slot per load, each with its mixed-radix multiplier.
    /// assert_eq!(
    ///     schema.threads().iter().map(|t| t.loads.len()).sum::<usize>(),
    ///     program.num_loads()
    /// );
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `register_bits` is 0 or exceeds 64, or if the analysis is
    /// missing a load of the program.
    pub fn build(program: &Program, analysis: &CandidateAnalysis, register_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&register_bits),
            "register width must be 1..=64 bits"
        );
        let capacity: u128 = 1u128 << register_bits;
        let mut threads = Vec::with_capacity(program.num_threads());
        for t in 0..program.num_threads() {
            let tid = Tid(t as u32);
            let mut loads = Vec::new();
            let mut word = 0usize;
            let mut product: u128 = 1;
            for (op, instr) in program.iter_ops() {
                if op.tid != tid || !instr.is_load() {
                    continue;
                }
                let candidates = analysis
                    .candidates(op)
                    .expect("analysis covers every load of the program")
                    .to_vec();
                let n = candidates.len() as u128;
                assert!(n >= 1, "loads always have at least one candidate");
                if product.saturating_mul(n) > capacity {
                    // §3.2: overflow detected statically — start a fresh
                    // signature word and reset the weight multipliers.
                    word += 1;
                    product = 1;
                }
                loads.push(LoadSlot {
                    op,
                    candidates,
                    word,
                    multiplier: product as u64,
                });
                product *= n;
            }
            threads.push(ThreadSchema {
                tid,
                loads,
                num_words: word + 1,
            });
        }
        let mut word_load_start = Vec::new();
        let mut load_base = 0u32;
        for thread in &threads {
            let mut i = 0u32;
            for w in 0..thread.num_words {
                word_load_start.push(load_base + i);
                while (i as usize) < thread.loads.len() && thread.loads[i as usize].word == w {
                    i += 1;
                }
            }
            load_base += thread.loads.len() as u32;
        }
        word_load_start.push(load_base);
        let mut slot_magic = Vec::new();
        if register_bits <= 32 {
            for thread in &threads {
                for slot in &thread.loads {
                    slot_magic.push(if slot.multiplier == 1 {
                        0
                    } else {
                        let d = u128::from(slot.multiplier);
                        (1u128 << 64).div_ceil(d) as u64
                    });
                }
            }
        }
        SignatureSchema {
            threads,
            register_bits,
            word_load_start,
            slot_magic,
        }
    }

    /// Per-thread schemas, indexed by thread id.
    pub fn threads(&self) -> &[ThreadSchema] {
        &self.threads
    }

    /// Register width the schema was built for.
    pub fn register_bits(&self) -> u32 {
        self.register_bits
    }

    /// Total signature words across all threads.
    pub fn total_words(&self) -> usize {
        self.threads.iter().map(|t| t.num_words).sum()
    }

    /// Execution-signature size in bytes: every word occupies a full
    /// register ("the instrumented code uses the entire 64 bits of a
    /// register, even when fewer are needed", §6.3).
    pub fn signature_bytes(&self) -> usize {
        self.total_words() * (self.register_bits as usize / 8).max(1)
    }

    /// Encodes an observed reads-from outcome into an execution signature —
    /// bit-exactly what the instrumented test computes at runtime.
    ///
    /// # Errors
    ///
    /// [`EncodeError::UnexpectedValue`] when a load observed a value outside
    /// its candidate set (the instrumented assertion fires);
    /// [`EncodeError::MissingLoad`] when the observation is incomplete.
    ///
    /// Slots are walked together with `observed`'s entries: both are in
    /// `(tid, idx)` order, so each slot's value is found by advancing one
    /// cursor rather than by a map lookup. Entries for ops that are not
    /// slots are skipped; a slot out of that order (a hand-built or
    /// deserialized schema) falls back to a lookup.
    pub fn encode(&self, observed: &ReadsFrom) -> Result<ExecutionSignature, EncodeError> {
        let mut words = Vec::with_capacity(self.total_words());
        let mut entries = observed.iter().peekable();
        let mut frontier: Option<OpId> = None;
        for thread in &self.threads {
            let base = words.len();
            words.resize(base + thread.num_words, 0u64);
            for slot in &thread.loads {
                let value = if frontier.is_some_and(|f| slot.op <= f) {
                    observed.value_of(slot.op)
                } else {
                    frontier = Some(slot.op);
                    while entries.next_if(|&(op, _)| op < slot.op).is_some() {}
                    entries.next_if(|&(op, _)| op == slot.op).map(|(_, v)| v)
                }
                .ok_or(EncodeError::MissingLoad { load: slot.op })?;
                let index = slot.candidates.iter().position(|&c| c == value).ok_or(
                    EncodeError::UnexpectedValue {
                        load: slot.op,
                        value,
                    },
                )?;
                words[base + slot.word] += index as u64 * slot.multiplier;
            }
        }
        Ok(ExecutionSignature { words })
    }

    /// Total number of load slots across all threads.
    pub fn total_loads(&self) -> usize {
        self.threads.iter().map(|t| t.loads.len()).sum()
    }

    /// A stable 64-bit content hash of the schema's logical layout.
    ///
    /// Hashes exactly what determines signature semantics — per-thread
    /// slot order, slot ops, candidate lists, word assignments,
    /// multipliers, word counts, and the register width — via FNV-1a over
    /// a fixed little-endian field serialization. Derived acceleration
    /// tables (`word_load_start`, `slot_magic`) are excluded: they are
    /// recomputed from this content and absent after deserialization.
    ///
    /// The hash is independent of process, platform, and build, so it can
    /// key cross-campaign artifacts (the verdict cache, certificate
    /// sidecars): two campaigns whose schemas hash alike decode and check
    /// signatures identically.
    pub fn stable_hash(&self) -> u64 {
        /// FNV-1a offset basis and prime (64-bit).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(&self.register_bits.to_le_bytes());
        eat(&(self.threads.len() as u64).to_le_bytes());
        for thread in &self.threads {
            eat(&thread.tid.0.to_le_bytes());
            eat(&(thread.num_words as u64).to_le_bytes());
            eat(&(thread.loads.len() as u64).to_le_bytes());
            for slot in &thread.loads {
                eat(&slot.op.tid.0.to_le_bytes());
                eat(&slot.op.idx.to_le_bytes());
                eat(&(slot.word as u64).to_le_bytes());
                eat(&slot.multiplier.to_le_bytes());
                eat(&(slot.candidates.len() as u64).to_le_bytes());
                for value in &slot.candidates {
                    eat(&value.0.to_le_bytes());
                }
            }
        }
        hash
    }

    /// Decodes an execution signature back into the reads-from outcome it
    /// encodes (Algorithm 1: walk loads last-to-first, divide by the
    /// multiplier, keep the remainder).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the signature could not have been
    /// produced under this schema.
    pub fn decode(&self, signature: &ExecutionSignature) -> Result<ReadsFrom, DecodeError> {
        let mut indices = Vec::with_capacity(self.total_loads());
        self.decode_indices(signature, &mut indices)?;
        let mut observed = ReadsFrom::new();
        let mut pos = 0usize;
        for thread in &self.threads {
            for slot in &thread.loads {
                observed.record(slot.op, slot.candidates[indices[pos] as usize]);
                pos += 1;
            }
        }
        Ok(observed)
    }

    /// Decodes the candidate *index* of every load into `out`, in
    /// thread-major program order (the order [`threads`](Self::threads)
    /// lists slots). This is the checking hot path: the branch-free inner
    /// loop OR-accumulates an out-of-range flag and the residual bits
    /// instead of testing per load, and only falls back to the branchy
    /// walk (to recover the exact first error, in the order the original
    /// per-load checks would report it) when the flags trip.
    ///
    /// `out` is cleared first; reusing one buffer across calls makes
    /// steady-state decoding allocation-free.
    ///
    /// # Errors
    ///
    /// Returns the same [`DecodeError`] values as [`decode`](Self::decode).
    pub fn decode_indices(
        &self,
        signature: &ExecutionSignature,
        out: &mut Vec<u32>,
    ) -> Result<(), DecodeError> {
        if signature.words.len() != self.total_words() {
            return Err(DecodeError::WrongLength {
                expected: self.total_words(),
                found: signature.words.len(),
            });
        }
        out.clear();
        out.resize(self.total_loads(), 0);
        let mut oob = 0u64;
        let mut residual = 0u64;
        let mut word_base = 0usize;
        let mut load_base = 0usize;
        for thread in &self.threads {
            // Loads are in program order and `word` is monotone, so each
            // word's slots form a contiguous run; consuming words last to
            // first and slots last to first within each word visits loads
            // in exactly Algorithm 1's reverse order.
            let mut i = thread.loads.len();
            for w in (0..thread.num_words).rev() {
                let mut rem = signature.words[word_base + w];
                while i > 0 && thread.loads[i - 1].word == w {
                    i -= 1;
                    let slot = &thread.loads[i];
                    let at = load_base + i;
                    let magic = self.slot_magic.get(at).copied().unwrap_or(0);
                    let index = decode_slot(&mut rem, slot.multiplier, magic);
                    oob |= u64::from(index >= slot.candidates.len() as u64);
                    out[at] = index as u32;
                }
                residual |= rem;
            }
            word_base += thread.num_words;
            load_base += thread.loads.len();
        }
        if oob | residual != 0 {
            return Err(self.exact_decode_error(signature));
        }
        Ok(())
    }

    /// Like [`decode_indices`](Self::decode_indices), but decodes
    /// `signature` *against* `prev`, assuming `out` already holds `prev`'s
    /// decoded indices. Raw signature words equal to `prev`'s are skipped
    /// outright — their slots cannot have changed and their validity was
    /// established when `prev` decoded — so the cost is proportional to the
    /// words that differ, which for ascending-sorted neighbours is a small
    /// fraction of the signature. Every slot whose index changed is
    /// appended to `changed` as a `(slot, previous_index)` pair (the new
    /// index is in `out[slot]`), letting callers patch downstream state
    /// incrementally.
    ///
    /// # Errors
    ///
    /// Returns the same [`DecodeError`] values as
    /// [`decode_indices`](Self::decode_indices). On error `out` may hold a
    /// mix of old and new indices; callers must re-seed with a full decode
    /// before the next delta call.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `prev` has the schema's word count and that `out`
    /// holds exactly [`total_loads`](Self::total_loads) entries — i.e. that
    /// `prev` actually decoded cleanly into `out` beforehand.
    pub fn decode_indices_delta(
        &self,
        signature: &ExecutionSignature,
        prev: &ExecutionSignature,
        out: &mut [u32],
        changed: &mut Vec<(u32, u32)>,
    ) -> Result<(), DecodeError> {
        if signature.words.len() != self.total_words() {
            return Err(DecodeError::WrongLength {
                expected: self.total_words(),
                found: signature.words.len(),
            });
        }
        debug_assert_eq!(prev.words.len(), self.total_words());
        debug_assert_eq!(out.len(), self.total_loads());
        changed.clear();
        let mut oob = 0u64;
        let mut residual = 0u64;
        let mut word_base = 0usize;
        let mut load_base = 0usize;
        let ranges = &self.word_load_start;
        let have_ranges = ranges.len() == self.total_words() + 1;
        for thread in &self.threads {
            let mut i = thread.loads.len();
            for w in (0..thread.num_words).rev() {
                let gw = word_base + w;
                let word = signature.words[gw];
                if word == prev.words[gw] {
                    // Unchanged word: identical slots, already validated.
                    // Nothing to touch when the range table is present; the
                    // fallback walks the slots to keep its cursor aligned.
                    if !have_ranges {
                        while i > 0 && thread.loads[i - 1].word == w {
                            i -= 1;
                        }
                    }
                    continue;
                }
                let mut rem = word;
                if have_ranges {
                    for at in (ranges[gw] as usize..ranges[gw + 1] as usize).rev() {
                        let slot = &thread.loads[at - load_base];
                        let magic = self.slot_magic.get(at).copied().unwrap_or(0);
                        let index = decode_slot(&mut rem, slot.multiplier, magic);
                        oob |= u64::from(index >= slot.candidates.len() as u64);
                        if out[at] != index as u32 {
                            changed.push((at as u32, out[at]));
                            out[at] = index as u32;
                        }
                    }
                } else {
                    while i > 0 && thread.loads[i - 1].word == w {
                        i -= 1;
                        let slot = &thread.loads[i];
                        let at = load_base + i;
                        let magic = self.slot_magic.get(at).copied().unwrap_or(0);
                        let index = decode_slot(&mut rem, slot.multiplier, magic);
                        oob |= u64::from(index >= slot.candidates.len() as u64);
                        if out[at] != index as u32 {
                            changed.push((at as u32, out[at]));
                            out[at] = index as u32;
                        }
                    }
                }
                residual |= rem;
            }
            word_base += thread.num_words;
            load_base += thread.loads.len();
        }
        if oob | residual != 0 {
            return Err(self.exact_decode_error(signature));
        }
        Ok(())
    }

    /// Cold path behind [`decode_indices`](Self::decode_indices): re-runs
    /// the original branchy Algorithm-1 walk to find the first error in
    /// per-load check order.
    #[cold]
    fn exact_decode_error(&self, signature: &ExecutionSignature) -> DecodeError {
        let mut base = 0usize;
        for thread in &self.threads {
            let mut words = signature.words[base..base + thread.num_words].to_vec();
            for slot in thread.loads.iter().rev() {
                let word = &mut words[slot.word];
                let index = *word / slot.multiplier;
                *word %= slot.multiplier;
                if index >= slot.candidates.len() as u64 {
                    return DecodeError::IndexOutOfRange {
                        load: slot.op,
                        index,
                    };
                }
            }
            for (w, &word) in words.iter().enumerate() {
                if word != 0 {
                    return DecodeError::ResidualBits {
                        tid: thread.tid,
                        word: w,
                    };
                }
            }
            base += thread.num_words;
        }
        unreachable!("exact_decode_error is only called after a flag tripped")
    }
}

/// A compact execution signature: the concatenated per-thread signature
/// words, thread 0 first and each thread's first word most significant
/// (§4.1's sort layout). `Ord` is therefore the paper's ascending signature
/// order.
#[derive(Clone, Debug, Default, Eq, PartialEq, Ord, PartialOrd, Hash, Serialize, Deserialize)]
pub struct ExecutionSignature {
    words: Vec<u64>,
}

impl ExecutionSignature {
    /// Creates a signature from raw words (thread 0 first,
    /// most-significant word first within each thread).
    pub fn from_words(words: Vec<u64>) -> Self {
        ExecutionSignature { words }
    }

    /// The raw signature words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` for the empty signature.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl fmt::Display for ExecutionSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("0x")?;
        if self.words.is_empty() {
            return f.write_str("0");
        }
        for (i, w) in self.words.iter().enumerate() {
            if i == 0 {
                write!(f, "{w:x}")?;
            } else {
                write!(f, "_{w:016x}")?;
            }
        }
        Ok(())
    }
}

/// The §3.2 closed-form estimate of per-thread signature size in bits:
/// `L · log₂(1 + (S/A)(T-1))` for `T` threads, `S` stores and `L` loads per
/// thread, and `A` shared addresses.
///
/// ```
/// use mtc_instr::estimated_signature_bits;
/// // The paper's worked example: S=L=50, A=32, T=2 ≈ 2.7e20 ≈ 2^68.
/// let bits = estimated_signature_bits(2, 50.0, 50.0, 32.0);
/// assert!((bits - 68.0).abs() < 1.0);
/// ```
pub fn estimated_signature_bits(threads: u32, stores: f64, loads: f64, addrs: f64) -> f64 {
    let per_load = 1.0 + (stores / addrs) * (threads as f64 - 1.0);
    loads * per_load.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, SourcePruning};
    use mtc_isa::{Addr, MemoryLayout, ProgramBuilder};
    use proptest::prelude::*;

    fn figure3_program() -> Program {
        let mut b = ProgramBuilder::new(2, MemoryLayout::no_false_sharing());
        b.thread(0)
            .store(Addr(0))
            .load(Addr(0))
            .load(Addr(1))
            .store(Addr(0));
        b.thread(1).store(Addr(1)).store(Addr(0)).load(Addr(0));
        b.thread(2).store(Addr(1));
        b.build().unwrap()
    }

    fn schema_for(p: &Program, bits: u32) -> SignatureSchema {
        SignatureSchema::build(p, &analyze(p, &SourcePruning::none()), bits)
    }

    #[test]
    fn stable_hash_tracks_logical_content_only() {
        let p = figure3_program();
        let a = schema_for(&p, 64);
        let b = schema_for(&p, 64);
        assert_eq!(a.stable_hash(), b.stable_hash());
        // Register width participates in the hash.
        assert_ne!(a.stable_hash(), schema_for(&p, 32).stable_hash());
        // Deserialization drops the derived acceleration tables
        // (`#[serde(skip)]`); the hash must not see them.
        let mut stripped = a.clone();
        stripped.word_load_start = Vec::new();
        stripped.slot_magic = Vec::new();
        assert_eq!(a.stable_hash(), stripped.stable_hash());
        // A different program layout hashes differently.
        let mut other = ProgramBuilder::new(2, MemoryLayout::no_false_sharing());
        other.thread(0).store(Addr(0)).load(Addr(0));
        other.thread(1).store(Addr(0));
        let other = other.build().unwrap();
        assert_ne!(a.stable_hash(), schema_for(&other, 64).stable_hash());
    }

    #[test]
    fn figure3_weights_are_mixed_radix() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let t0 = &s.threads()[0];
        assert_eq!(t0.loads.len(), 2);
        // First load: multiplier 1; second load: multiplier = cardinality of
        // the first (2 candidates -> weights 0,1 then multiples of 2).
        assert_eq!(t0.loads[0].multiplier, 1);
        assert_eq!(t0.loads[1].multiplier, t0.loads[0].cardinality() as u64);
        // Thread 2 has no loads but still owns one constant-zero word.
        assert_eq!(s.threads()[2].num_words, 1);
        assert_eq!(s.total_words(), 3);
    }

    #[test]
    fn encode_decode_roundtrip_on_figure3() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        // Observation: T0.1 reads own store #1; T0.2 reads T2's #5;
        // T1.2 reads T0's #2.
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(1));
        rf.record(OpId::new(Tid(0), 2), Value(5));
        rf.record(OpId::new(Tid(1), 2), Value(2));
        let sig = s.encode(&rf).unwrap();
        assert_eq!(s.decode(&sig).unwrap(), rf);
        // T0: idx 0 * 1 + idx 2 * 2 = 4; T1: idx 2 * 1 = 2; T2: 0.
        assert_eq!(sig.words(), &[4, 2, 0]);
    }

    #[test]
    fn assertion_fires_on_impossible_value() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut rf = ReadsFrom::new();
        // Load T0.1 of Addr(0) cannot observe init: its own store #1
        // precedes it.
        rf.record(OpId::new(Tid(0), 1), Value::INIT);
        rf.record(OpId::new(Tid(0), 2), Value(3));
        rf.record(OpId::new(Tid(1), 2), Value(4));
        assert_eq!(
            s.encode(&rf),
            Err(EncodeError::UnexpectedValue {
                load: OpId::new(Tid(0), 1),
                value: Value::INIT
            })
        );
    }

    #[test]
    fn missing_load_mid_thread_is_the_error() {
        // T0.1 and T1.2 observed, T0.2 (between them) missing.
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(1));
        rf.record(OpId::new(Tid(1), 2), Value(2));
        assert_eq!(
            s.encode(&rf),
            Err(EncodeError::MissingLoad {
                load: OpId::new(Tid(0), 2)
            })
        );
    }

    #[test]
    fn unexpected_value_before_a_missing_load_wins() {
        // The first slot's assertion fires before the later slots are
        // found missing: errors are reported in slot order.
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value::INIT);
        assert_eq!(
            s.encode(&rf),
            Err(EncodeError::UnexpectedValue {
                load: OpId::new(Tid(0), 1),
                value: Value::INIT
            })
        );
    }

    #[test]
    fn entries_that_are_not_slots_are_ignored() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(1));
        rf.record(OpId::new(Tid(0), 2), Value(5));
        rf.record(OpId::new(Tid(1), 2), Value(2));
        let plain = s.encode(&rf).unwrap();
        // A store, a thread without loads, and ops past the program.
        rf.record(OpId::new(Tid(0), 0), Value(9));
        rf.record(OpId::new(Tid(1), 0), Value(7));
        rf.record(OpId::new(Tid(2), 0), Value(3));
        rf.record(OpId::new(Tid(9), 4), Value(1));
        assert_eq!(s.encode(&rf).unwrap(), plain);
    }

    #[test]
    fn out_of_order_slots_fall_back_to_lookups() {
        // A hand-built schema whose slots are not in `(tid, idx)` order
        // encodes exactly what per-slot lookups give.
        let p = figure3_program();
        let mut s = schema_for(&p, 64);
        s.threads[0].loads.reverse();
        s.threads.swap(0, 1);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(1));
        rf.record(OpId::new(Tid(0), 2), Value(5));
        rf.record(OpId::new(Tid(1), 2), Value(2));
        let mut expected = Vec::new();
        for thread in &s.threads {
            let base = expected.len();
            expected.resize(base + thread.num_words, 0u64);
            for slot in &thread.loads {
                let v = rf.value_of(slot.op).unwrap();
                let index = slot.candidates.iter().position(|&c| c == v).unwrap();
                expected[base + slot.word] += index as u64 * slot.multiplier;
            }
        }
        assert_eq!(s.encode(&rf).unwrap().words(), &expected[..]);
        rf = rf
            .iter()
            .filter(|&(op, _)| op.tid != Tid(0) || op.idx != 1)
            .collect();
        assert_eq!(
            s.encode(&rf),
            Err(EncodeError::MissingLoad {
                load: OpId::new(Tid(0), 1)
            })
        );
    }

    #[test]
    fn missing_load_is_reported() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let rf = ReadsFrom::new();
        assert!(matches!(
            s.encode(&rf),
            Err(EncodeError::MissingLoad { .. })
        ));
    }

    #[test]
    fn decode_rejects_corrupt_signatures() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        assert!(matches!(
            s.decode(&ExecutionSignature::from_words(vec![0])),
            Err(DecodeError::WrongLength {
                expected: 3,
                found: 1
            })
        ));
        // T0 word capacity is 2*3 = 6 combinations (values 0..=5); 600 is
        // out of range.
        assert!(s
            .decode(&ExecutionSignature::from_words(vec![600, 0, 0]))
            .is_err());
        // Thread 2 (no loads) must have a zero word.
        assert!(matches!(
            s.decode(&ExecutionSignature::from_words(vec![0, 0, 7])),
            Err(DecodeError::ResidualBits {
                tid: Tid(2),
                word: 0
            })
        ));
    }

    #[test]
    fn narrow_registers_split_words() {
        // 8 loads each with 4 candidates need 16 bits; with 8-bit words the
        // schema must split (4 loads per word).
        let mut b = ProgramBuilder::new(4, MemoryLayout::no_false_sharing());
        let mut t1 = b.thread(1);
        for a in 0..4 {
            t1 = t1.store(Addr(a)).store(Addr(a)).store(Addr(a));
        }
        let mut t0 = b.thread(0);
        for a in [0u32, 1, 2, 3, 0, 1, 2, 3] {
            t0 = t0.load(Addr(a));
        }
        let p = b.build().unwrap();
        let wide = schema_for(&p, 64);
        assert_eq!(wide.threads()[0].num_words, 1);
        let narrow = schema_for(&p, 8);
        assert_eq!(narrow.threads()[0].num_words, 2);
        // Multipliers reset at the word boundary.
        let slots = &narrow.threads()[0].loads;
        assert_eq!(slots[4].multiplier, 1);
        assert_eq!(slots[4].word, 1);
        // Round-trips still hold across the split.
        let mut rf = ReadsFrom::new();
        for (i, &(a, v)) in [
            (0u32, 1u32),
            (1, 0),
            (2, 7),
            (3, 10),
            (0, 2),
            (1, 4),
            (2, 8),
            (3, 12),
        ]
        .iter()
        .enumerate()
        {
            let _ = a;
            rf.record(OpId::new(Tid(0), i as u32), Value(v));
        }
        let sig = narrow.encode(&rf).unwrap();
        assert_eq!(narrow.decode(&sig).unwrap(), rf);
        assert_eq!(wide.decode(&wide.encode(&rf).unwrap()).unwrap(), rf);
    }

    #[test]
    fn decode_indices_matches_decode_on_valid_and_corrupt_words() {
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut indices = Vec::new();
        // Valid signature: indices in slot order equal what decode records.
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(1));
        rf.record(OpId::new(Tid(0), 2), Value(5));
        rf.record(OpId::new(Tid(1), 2), Value(2));
        let sig = s.encode(&rf).unwrap();
        s.decode_indices(&sig, &mut indices).unwrap();
        let mut pos = 0;
        for thread in s.threads() {
            for slot in &thread.loads {
                assert_eq!(
                    slot.candidates[indices[pos] as usize],
                    rf.value_of(slot.op).unwrap()
                );
                pos += 1;
            }
        }
        // Errors are byte-identical to the branchy path's.
        for words in [
            vec![0u64],
            vec![600, 0, 0],
            vec![0, 0, 7],
            vec![u64::MAX; 3],
        ] {
            let sig = ExecutionSignature::from_words(words);
            assert_eq!(
                s.decode_indices(&sig, &mut indices).unwrap_err(),
                s.decode(&sig).unwrap_err()
            );
        }
    }

    #[test]
    fn decode_indices_delta_matches_full_decode() {
        // 64-bit words use the division path, 8-bit words split across
        // words and use the reciprocal (magic) path.
        for bits in [64, 8] {
            decode_delta_agrees_at_width(bits);
        }
    }

    fn decode_delta_agrees_at_width(bits: u32) {
        let p = figure3_program();
        let s = schema_for(&p, bits);
        // Enumerate every valid signature by walking the index space.
        let slots: Vec<_> = s.threads().iter().flat_map(|t| t.loads.iter()).collect();
        let mut sigs = Vec::new();
        let mut assignment = vec![0usize; slots.len()];
        loop {
            let mut rf = ReadsFrom::new();
            for (slot, &idx) in slots.iter().zip(&assignment) {
                rf.record(slot.op, slot.candidates[idx]);
            }
            sigs.push(s.encode(&rf).unwrap());
            let mut pos = 0;
            loop {
                if pos == slots.len() {
                    break;
                }
                assignment[pos] += 1;
                if assignment[pos] < slots[pos].cardinality() {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
            if pos == slots.len() {
                break;
            }
        }
        // Every ordered pair: delta-decoding b on top of a's indices must
        // equal a fresh decode of b, and `changed` must list exactly the
        // differing slots with their pre-update indices.
        let mut fresh = Vec::new();
        let mut delta = Vec::new();
        let mut changed = Vec::new();
        for a in &sigs {
            for b in &sigs {
                s.decode_indices(a, &mut delta).unwrap();
                let before = delta.clone();
                s.decode_indices(b, &mut fresh).unwrap();
                s.decode_indices_delta(b, a, &mut delta, &mut changed)
                    .unwrap();
                assert_eq!(delta, fresh);
                let mut expect: Vec<(u32, u32)> = before
                    .iter()
                    .zip(&fresh)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(i, (&o, _))| (i as u32, o))
                    .collect();
                let mut got = changed.clone();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect);
            }
        }
        // The scan fallback (deserialized schemas carry no range table)
        // decodes identically.
        let mut bare = s.clone();
        bare.word_load_start.clear();
        for a in &sigs {
            for b in &sigs {
                s.decode_indices(a, &mut delta).unwrap();
                s.decode_indices(b, &mut fresh).unwrap();
                bare.decode_indices_delta(b, a, &mut delta, &mut changed)
                    .unwrap();
                assert_eq!(delta, fresh);
            }
        }
        // Corrupt signatures report the same error as the full path.
        let good = &sigs[0];
        let mut indices = Vec::new();
        s.decode_indices(good, &mut indices).unwrap();
        for words in [vec![600, 0, 0], vec![0, 0, 7], vec![u64::MAX; 3]] {
            let bad = ExecutionSignature::from_words(words);
            s.decode_indices(good, &mut indices).unwrap();
            assert_eq!(
                s.decode_indices_delta(&bad, good, &mut indices, &mut changed)
                    .unwrap_err(),
                s.decode(&bad).unwrap_err()
            );
        }
        let short = ExecutionSignature::from_words(vec![0]);
        s.decode_indices(good, &mut indices).unwrap();
        assert_eq!(
            s.decode_indices_delta(&short, good, &mut indices, &mut changed)
                .unwrap_err(),
            s.decode(&short).unwrap_err()
        );
    }

    #[test]
    fn decode_indices_saturated_words_hit_every_boundary() {
        // The largest valid signature (every load at its top candidate
        // index) decodes cleanly; one more trips IndexOutOfRange on the
        // *last* load of the word — the first one Algorithm 1 visits.
        let p = figure3_program();
        let s = schema_for(&p, 64);
        let mut top_words = vec![0u64; s.total_words()];
        let mut base = 0;
        for (t, thread) in s.threads().iter().enumerate() {
            let _ = t;
            for slot in &thread.loads {
                top_words[base + slot.word] += (slot.cardinality() as u64 - 1) * slot.multiplier;
            }
            base += thread.num_words;
        }
        let top = ExecutionSignature::from_words(top_words.clone());
        let mut indices = Vec::new();
        s.decode_indices(&top, &mut indices).unwrap();
        for (i, &idx) in indices.iter().enumerate() {
            let slot = s
                .threads()
                .iter()
                .flat_map(|t| t.loads.iter())
                .nth(i)
                .unwrap();
            assert_eq!(idx as usize, slot.cardinality() - 1, "slot {i}");
        }
        top_words[0] += 1;
        let over = ExecutionSignature::from_words(top_words);
        let err = s.decode_indices(&over, &mut indices).unwrap_err();
        assert_eq!(err, s.decode(&over).unwrap_err());
        assert!(matches!(err, DecodeError::IndexOutOfRange { .. }));
    }

    #[test]
    fn signature_bytes_accounts_for_register_width() {
        let p = figure3_program();
        assert_eq!(schema_for(&p, 64).signature_bytes(), 3 * 8);
        assert_eq!(schema_for(&p, 32).signature_bytes(), 3 * 4);
    }

    #[test]
    fn estimate_matches_paper_example() {
        let bits = estimated_signature_bits(2, 50.0, 50.0, 32.0);
        assert!((67.0..69.0).contains(&bits), "estimate {bits}");
    }

    #[test]
    fn signature_display_is_hex() {
        let sig = ExecutionSignature::from_words(vec![0x20, 0x84]);
        assert_eq!(sig.to_string(), "0x20_0000000000000084");
        assert_eq!(ExecutionSignature::default().to_string(), "0x0");
    }

    #[test]
    fn estimate_tracks_actual_schema_size() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        // §3.2's closed form should land within ~2x of the measured bit
        // count across the paper's parameter space.
        for (threads, ops, addrs) in [(2u32, 50u32, 32u32), (4, 100, 64), (7, 200, 64)] {
            let test = TestConfig::new(IsaKind::Arm, threads, ops, addrs).with_seed(9);
            let p = generate(&test);
            let analysis = analyze(&p, &SourcePruning::none());
            let schema = SignatureSchema::build(&p, &analysis, 64);
            let actual_bits: f64 = analysis.iter().map(|(_, c)| (c.len() as f64).log2()).sum();
            let loads_per_thread = p.num_loads() as f64 / threads as f64;
            let stores_per_thread = p.num_stores() as f64 / threads as f64;
            let estimate = threads as f64
                * estimated_signature_bits(
                    threads,
                    stores_per_thread,
                    loads_per_thread,
                    addrs as f64,
                );
            assert!(
                (0.5..2.0).contains(&(estimate / actual_bits)),
                "{threads}-{ops}-{addrs}: estimate {estimate:.0} vs actual {actual_bits:.0}"
            );
            // And the built schema's capacity covers the actual bits.
            let capacity_bits = schema.total_words() as f64 * 64.0;
            assert!(capacity_bits >= actual_bits);
        }
    }

    proptest! {
        /// Decoding never panics on arbitrary word vectors: anything that
        /// is not a schema-valid signature returns a structured error.
        #[test]
        fn decode_is_total_over_arbitrary_words(
            seed in any::<u64>(),
            words in prop::collection::vec(any::<u64>(), 0..8),
        ) {
            use mtc_gen::{generate, TestConfig};
            use mtc_isa::IsaKind;
            let p = generate(&TestConfig::new(IsaKind::Arm, 2, 12, 4).with_seed(seed));
            let schema = SignatureSchema::build(&p, &analyze(&p, &SourcePruning::none()), 32);
            let sig = ExecutionSignature::from_words(words);
            let mut indices = Vec::new();
            let fast = schema.decode_indices(&sig, &mut indices);
            match schema.decode(&sig) {
                Ok(rf) => {
                    prop_assert_eq!(&fast, &Ok(()));
                    // A lucky valid decode must re-encode to the same
                    // signature (bijectivity on the valid subset).
                    prop_assert_eq!(schema.encode(&rf).expect("decoded rf is valid"), sig);
                }
                // The branch-free path reports the identical error.
                Err(e) => prop_assert_eq!(fast.unwrap_err(), e),
            }
        }

        /// §3.2's closed form is a sound upper bound, not just an estimate:
        /// with the worst-case contention assumption (one shared address,
        /// `T = 2` so *every* other-thread store counts), each load's
        /// cardinality is at most `1 + S_other`, so a thread's measured
        /// information content `Σ log₂(cardᵢ)` never exceeds
        /// `estimated_signature_bits(2, S_other, L, 1)`. The word count the
        /// builder actually allocates is bounded by the same quantity: every
        /// word it closes already holds more than
        /// `register_bits − log₂(C_max)` bits.
        #[test]
        fn estimate_upper_bounds_built_schema_bits(
            seed in any::<u64>(),
            threads in 1u32..6,
            ops in 4u32..60,
            addrs in 1u32..32,
            bits in prop::sample::select(vec![16u32, 32, 64]),
        ) {
            use mtc_gen::{generate, TestConfig};
            use mtc_isa::IsaKind;
            let p = generate(&TestConfig::new(IsaKind::Arm, threads, ops, addrs).with_seed(seed));
            let analysis = analyze(&p, &SourcePruning::none());
            let schema = SignatureSchema::build(&p, &analysis, bits);
            for thread in schema.threads() {
                let measured: f64 = thread
                    .loads
                    .iter()
                    .map(|s| (s.cardinality() as f64).log2())
                    .sum();
                let other_stores = p.stores().filter(|(op, _)| op.tid != thread.tid).count();
                let bound = estimated_signature_bits(
                    2,
                    other_stores as f64,
                    thread.loads.len() as f64,
                    1.0,
                );
                prop_assert!(
                    measured <= bound + 1e-9,
                    "{}: measured {measured:.2} bits > bound {bound:.2}",
                    thread.tid
                );
                // Packing: W-1 words were closed by the overflow check, each
                // already carrying > bits - log2(C_max) bits of content, so
                // the allocation is within the measured information too.
                let cmax = thread
                    .loads
                    .iter()
                    .map(LoadSlot::cardinality)
                    .max()
                    .unwrap_or(1) as f64;
                let full_word_bits = f64::from(bits) - cmax.log2();
                prop_assert!(full_word_bits > 0.0, "cardinality exceeds a register");
                prop_assert!(
                    (thread.num_words as f64 - 1.0) * full_word_bits <= measured + 1e-9,
                    "{}: {} words over {measured:.2} measured bits",
                    thread.tid,
                    thread.num_words
                );
            }
        }

        /// The core §3.1 guarantee: signatures and interleavings are 1:1 —
        /// encode/decode round-trips for arbitrary candidate choices, and
        /// distinct choices yield distinct signatures.
        #[test]
        fn roundtrip_and_injectivity(
            seed in any::<u64>(),
            bits in prop::sample::select(vec![16u32, 32, 64]),
            picks in prop::collection::vec(any::<u32>(), 64),
        ) {
            use mtc_gen::{generate, TestConfig};
            use mtc_isa::IsaKind;
            let config = TestConfig::new(IsaKind::Arm, 3, 16, 4).with_seed(seed);
            let p = generate(&config);
            let analysis = analyze(&p, &SourcePruning::none());
            let schema = SignatureSchema::build(&p, &analysis, bits);

            let mut rf = ReadsFrom::new();
            let mut alt = ReadsFrom::new();
            let mut differs = false;
            for (i, (op, cands)) in analysis.iter().enumerate() {
                let pick = picks[i % picks.len()] as usize % cands.len();
                rf.record(op, cands[pick]);
                // A second observation differing (when possible) in the
                // first multi-candidate load.
                let alt_pick = if !differs && cands.len() > 1 {
                    differs = true;
                    (pick + 1) % cands.len()
                } else {
                    pick
                };
                alt.record(op, cands[alt_pick]);
            }
            let sig = schema.encode(&rf).unwrap();
            prop_assert_eq!(schema.decode(&sig).unwrap(), rf.clone());
            let alt_sig = schema.encode(&alt).unwrap();
            prop_assert_eq!(alt_sig == sig, alt == rf);
        }
    }
}
