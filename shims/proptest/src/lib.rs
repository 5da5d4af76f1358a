//! Hermetic stand-in for the `proptest` crate.
//!
//! The build environment resolves every dependency from the source tree,
//! so this crate reimplements the slice of proptest's API the workspace
//! test suites use: the [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_filter` / `prop_recursive` / `boxed`, regex-flavoured string
//! strategies, integer-range and tuple strategies, `prop::collection`,
//! `prop::option`, `prop::bool`, weighted `prop_oneof!`, and the
//! `proptest!` test macro.
//!
//! Differences from real proptest, deliberate and documented:
//! - **No shrinking.** On failure the harness panics with the failing
//!   inputs (Debug-formatted), the case index, and the seed. Runs are
//!   fully deterministic — a fixed FNV hash of the test name seeds the
//!   RNG — so a failure reproduces exactly by re-running the test.
//! - **Regex strategies** support the subset actually used in the
//!   tests: literals, `.`, escapes, `[...]` classes with ranges,
//!   `(a|b)` groups, and `{m,n}` / `{m}` / `?` / `*` / `+` repetition.
//! - `.proptest-regressions` files are neither read nor written.
//! - Of proptest's environment variables only `PROPTEST_CASES` is
//!   honoured: when set to a valid count it overrides every config's
//!   `cases`.

pub mod test_runner {
    //! Deterministic case runner: config, error type, RNG.

    /// How many cases each `proptest!` test executes.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a test case failed.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A hard failure: the property does not hold.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError {
                message: message.into(),
            }
        }

        /// Alias kept for API compatibility (this shim treats rejects
        /// as failures rather than resampling).
        pub fn reject(message: impl Into<String>) -> TestCaseError {
            TestCaseError::fail(message)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Per-case outcome, as returned by `proptest!` bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic RNG handed to strategies (SplitMix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG whose stream is fully determined by `seed`.
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform sample from `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform usize from `[lo, hi]`.
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            debug_assert!(lo <= hi);
            lo + self.below((hi - lo) as u64 + 1) as usize
        }
    }

    /// Drives a single `proptest!`-generated test function.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Runner executing `config.cases` cases — unless the
        /// `PROPTEST_CASES` environment variable is set and parses, in
        /// which case it overrides the count, as in real proptest.
        pub fn new(mut config: ProptestConfig) -> TestRunner {
            config.cases = cases_override(config.cases, std::env::var("PROPTEST_CASES").ok());
            TestRunner { config }
        }

        /// Run `case` repeatedly with deterministic seeds derived from
        /// `name`. The closure returns the Debug rendering of the
        /// generated inputs plus the case outcome; on `Err` the runner
        /// panics with everything needed to reproduce.
        pub fn run_named<F>(&mut self, name: &str, mut case: F)
        where
            F: FnMut(&mut TestRng) -> (String, TestCaseResult),
        {
            let base = fnv1a(name.as_bytes());
            for i in 0..self.config.cases {
                let seed = base ^ (u64::from(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = TestRng::new(seed);
                let (inputs, outcome) = case(&mut rng);
                if let Err(err) = outcome {
                    panic!(
                        "proptest `{name}` failed at case {i}/{total} (seed {seed:#x}):\n\
                         {err}\nfailing inputs:\n{inputs}",
                        total = self.config.cases,
                    );
                }
            }
        }
    }

    /// The case count a runner uses: `env` (the `PROPTEST_CASES`
    /// value) when present and a valid count, `configured` otherwise.
    pub(crate) fn cases_override(configured: u32, env: Option<String>) -> u32 {
        env.and_then(|v| v.trim().parse().ok())
            .unwrap_or(configured)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

mod regex_gen {
    //! Tiny regex-subset *generator*: parses a pattern once per sample
    //! and emits a random matching string.

    use crate::test_runner::TestRng;

    pub(crate) enum Rx {
        Seq(Vec<Rx>),
        Alt(Vec<Rx>),
        /// Inclusive char ranges; `negated` complements over printable
        /// ASCII.
        Class {
            ranges: Vec<(char, char)>,
            negated: bool,
        },
        Lit(char),
        /// `.`: any printable ASCII character.
        Any,
        Repeat(Box<Rx>, u32, u32),
    }

    pub(crate) fn parse(pattern: &str) -> Rx {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0;
        let rx = parse_alt(&chars, &mut pos, pattern);
        assert!(
            pos == chars.len(),
            "unsupported regex pattern `{pattern}` (stopped at {pos})"
        );
        rx
    }

    fn parse_alt(chars: &[char], pos: &mut usize, pat: &str) -> Rx {
        let mut branches = vec![parse_seq(chars, pos, pat)];
        while *pos < chars.len() && chars[*pos] == '|' {
            *pos += 1;
            branches.push(parse_seq(chars, pos, pat));
        }
        if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Rx::Alt(branches)
        }
    }

    fn parse_seq(chars: &[char], pos: &mut usize, pat: &str) -> Rx {
        let mut items = Vec::new();
        while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
            let atom = parse_atom(chars, pos, pat);
            items.push(parse_quant(chars, pos, atom, pat));
        }
        Rx::Seq(items)
    }

    fn parse_atom(chars: &[char], pos: &mut usize, pat: &str) -> Rx {
        match chars[*pos] {
            '(' => {
                *pos += 1;
                let inner = parse_alt(chars, pos, pat);
                assert!(
                    *pos < chars.len() && chars[*pos] == ')',
                    "unclosed group in regex `{pat}`"
                );
                *pos += 1;
                inner
            }
            '[' => parse_class(chars, pos, pat),
            '\\' => {
                *pos += 1;
                assert!(*pos < chars.len(), "dangling escape in regex `{pat}`");
                let c = chars[*pos];
                *pos += 1;
                Rx::Lit(unescape(c))
            }
            '.' => {
                *pos += 1;
                Rx::Any
            }
            c => {
                *pos += 1;
                Rx::Lit(c)
            }
        }
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    fn parse_class(chars: &[char], pos: &mut usize, pat: &str) -> Rx {
        *pos += 1; // consume '['
        let negated = *pos < chars.len() && chars[*pos] == '^';
        if negated {
            *pos += 1;
        }
        let mut ranges = Vec::new();
        while *pos < chars.len() && chars[*pos] != ']' {
            let lo = if chars[*pos] == '\\' {
                *pos += 1;
                let c = unescape(chars[*pos]);
                *pos += 1;
                c
            } else {
                let c = chars[*pos];
                *pos += 1;
                c
            };
            // `a-z` range (a trailing `-` is a literal).
            if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
                *pos += 1;
                let hi = if chars[*pos] == '\\' {
                    *pos += 1;
                    let c = unescape(chars[*pos]);
                    *pos += 1;
                    c
                } else {
                    let c = chars[*pos];
                    *pos += 1;
                    c
                };
                assert!(lo <= hi, "inverted class range in regex `{pat}`");
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        assert!(*pos < chars.len(), "unclosed class in regex `{pat}`");
        *pos += 1; // consume ']'
        Rx::Class { ranges, negated }
    }

    fn parse_quant(chars: &[char], pos: &mut usize, atom: Rx, pat: &str) -> Rx {
        if *pos >= chars.len() {
            return atom;
        }
        match chars[*pos] {
            '?' => {
                *pos += 1;
                Rx::Repeat(Box::new(atom), 0, 1)
            }
            '*' => {
                *pos += 1;
                Rx::Repeat(Box::new(atom), 0, 8)
            }
            '+' => {
                *pos += 1;
                Rx::Repeat(Box::new(atom), 1, 8)
            }
            '{' => {
                *pos += 1;
                let mut min = 0u32;
                while chars[*pos].is_ascii_digit() {
                    min = min * 10 + chars[*pos].to_digit(10).unwrap();
                    *pos += 1;
                }
                let max = if chars[*pos] == ',' {
                    *pos += 1;
                    let mut m = 0u32;
                    while chars[*pos].is_ascii_digit() {
                        m = m * 10 + chars[*pos].to_digit(10).unwrap();
                        *pos += 1;
                    }
                    m
                } else {
                    min
                };
                assert!(chars[*pos] == '}', "malformed repetition in regex `{pat}`");
                *pos += 1;
                Rx::Repeat(Box::new(atom), min, max)
            }
            _ => atom,
        }
    }

    const PRINTABLE_LO: u32 = 0x20;
    const PRINTABLE_HI: u32 = 0x7E;

    pub(crate) fn generate(rx: &Rx, rng: &mut TestRng, out: &mut String) {
        match rx {
            Rx::Seq(items) => {
                for item in items {
                    generate(item, rng, out);
                }
            }
            Rx::Alt(branches) => {
                let pick = rng.below(branches.len() as u64) as usize;
                generate(&branches[pick], rng, out);
            }
            Rx::Lit(c) => out.push(*c),
            Rx::Any => {
                let c = PRINTABLE_LO + rng.below(u64::from(PRINTABLE_HI - PRINTABLE_LO + 1)) as u32;
                out.push(char::from_u32(c).unwrap());
            }
            Rx::Class { ranges, negated } => {
                if *negated {
                    // Rejection-sample over printable ASCII.
                    loop {
                        let c = PRINTABLE_LO
                            + rng.below(u64::from(PRINTABLE_HI - PRINTABLE_LO + 1)) as u32;
                        let c = char::from_u32(c).unwrap();
                        if !ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi) {
                            out.push(c);
                            break;
                        }
                    }
                } else {
                    // Weight ranges by width so each char is uniform.
                    let total: u64 = ranges.iter().map(|&(lo, hi)| width(lo, hi)).sum();
                    let mut pick = rng.below(total);
                    for &(lo, hi) in ranges {
                        let w = width(lo, hi);
                        if pick < w {
                            out.push(char::from_u32(lo as u32 + pick as u32).unwrap());
                            break;
                        }
                        pick -= w;
                    }
                }
            }
            Rx::Repeat(inner, min, max) => {
                let n = *min + rng.below(u64::from(*max - *min + 1)) as u32;
                for _ in 0..n {
                    generate(inner, rng, out);
                }
            }
        }
    }

    fn width(lo: char, hi: char) -> u64 {
        u64::from(hi as u32 - lo as u32 + 1)
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::regex_gen;
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `map`.
        fn prop_map<U, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, map }
        }

        /// Discard values failing `pred`, resampling (bounded retries).
        fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                source: self,
                reason: reason.into(),
                pred,
            }
        }

        /// Build recursive structures: `self` is the leaf case and
        /// `recurse` wraps an inner strategy into a branch case. The
        /// `_desired_size` / `_expected_branch_size` hints are accepted
        /// for API compatibility and ignored; depth is honoured.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut strat = self.boxed();
            for _ in 0..depth {
                let deeper = recurse(strat.clone()).boxed();
                strat = OneOf::new(vec![(2, strat), (3, deeper)]).boxed();
            }
            strat
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let this = self;
            BoxedStrategy {
                gen: Rc::new(move |rng| this.new_value(rng)),
            }
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T> {
        gen: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy {
                gen: Rc::clone(&self.gen),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.map)(self.source.new_value(rng))
        }
    }

    /// Result of [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        source: S,
        reason: String,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let candidate = self.source.new_value(rng);
                if (self.pred)(&candidate) {
                    return candidate;
                }
            }
            panic!(
                "prop_filter `{}` rejected 1000 consecutive samples",
                self.reason
            );
        }
    }

    /// Weighted union of boxed strategies (built by `prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> OneOf<T> {
        /// Union over `(weight, strategy)` pairs; weights must sum > 0.
        pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.options.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.below(total);
            for (w, strat) in &self.options {
                let w = u64::from(*w);
                if pick < w {
                    return strat.new_value(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "strategy on empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy on empty inclusive range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// String literals are regex-subset strategies producing matching
    /// `String`s (mirrors proptest's `&str` strategy).
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let rx = regex_gen::parse(self);
            let mut out = String::new();
            regex_gen::generate(&rx, rng, &mut out);
            out
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

pub mod arbitrary {
    //! `any::<T>()` support for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct ArbStrategy<T>(PhantomData<T>);

    impl<T> Clone for ArbStrategy<T> {
        fn clone(&self) -> ArbStrategy<T> {
            *self
        }
    }
    impl<T> Copy for ArbStrategy<T> {}

    impl<T: Arbitrary> Strategy for ArbStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// Strategy over every value of `T`.
    pub fn any<T: Arbitrary>() -> ArbStrategy<T> {
        ArbStrategy(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for char {
        fn arbitrary_value(rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated documents readable.
            char::from_u32(0x20 + rng.below(0x7F - 0x20) as u32).unwrap()
        }
    }
}

pub mod collection {
    //! `prop::collection::{vec, btree_map}`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Vector of values from `elem`, length within `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.usize_in(self.size.lo, self.size.hi);
            (0..n).map(|_| self.elem.new_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`.
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    /// Map with keys/values from `key`/`value`; duplicate keys collapse
    /// so the final size may undershoot the requested range.
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn new_value(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = rng.usize_in(self.size.lo, self.size.hi);
            (0..n)
                .map(|_| (self.key.new_value(rng), self.value.new_value(rng)))
                .collect()
        }
    }
}

pub mod option {
    //! `prop::option::of`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>`.
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` roughly three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

pub mod bool {
    //! `prop::bool::ANY`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    /// Either boolean, evenly.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Namespace mirroring `proptest::prelude::prop`.
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
    pub use crate::option;
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(..)]` and any number of `#[test] fn name(arg in
/// strategy, ..) { body }` items whose bodies may `return Ok(())` early.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner.run_named(stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), __rng);)+
                let mut __inputs = String::new();
                {
                    use ::std::fmt::Write as _;
                    $(let _ = writeln!(__inputs, "  {} = {:?}", stringify!($arg), &$arg);)+
                }
                #[allow(unreachable_code)]
                let __case = move || -> $crate::test_runner::TestCaseResult {
                    $body
                    Ok(())
                };
                (__inputs, __case())
            });
        }
    )*};
}

/// Weighted (`w => strategy`) or uniform union of strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                            __l, __r
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`\n{}",
                            __l, __r, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!("assertion failed: `left != right`\n  both: `{:?}`", __l),
                    ));
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn proptest_cases_env_overrides_configured_count() {
        use crate::test_runner::cases_override;
        assert_eq!(cases_override(32, None), 32);
        assert_eq!(cases_override(32, Some("512".into())), 512);
        assert_eq!(cases_override(32, Some(" 7\n".into())), 7);
        // Unparsable values keep the configured count.
        assert_eq!(cases_override(32, Some("many".into())), 32);
        assert_eq!(cases_override(32, Some("-1".into())), 32);
        assert_eq!(cases_override(32, Some(String::new())), 32);
    }

    #[test]
    fn regex_strategies_match_shape() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let s = Strategy::new_value(&"[a-z][a-z0-9]{0,6}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 7, "bad sample {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn regex_alternation_and_escapes() {
        let mut rng = TestRng::new(9);
        for _ in 0..100 {
            let s = Strategy::new_value(&"(ab|\\[|x){2}", &mut rng);
            let mut rest = s.as_str();
            for _ in 0..2 {
                rest = rest
                    .strip_prefix("ab")
                    .or_else(|| rest.strip_prefix('['))
                    .or_else(|| rest.strip_prefix('x'))
                    .expect("sample must be built from the alternatives");
            }
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn oneof_respects_all_branches() {
        let strat = prop_oneof![1 => Just(1u8), 1 => Just(2u8), 3 => Just(3u8)];
        let mut rng = TestRng::new(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::new_value(&strat, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn collections_and_filters() {
        let strat =
            prop::collection::vec(0u8..10, 2..5).prop_filter("nonzero first", |v| v[0] != 0);
        let mut rng = TestRng::new(11);
        for _ in 0..100 {
            let v = Strategy::new_value(&strat, &mut rng);
            assert!((2..5).contains(&v.len()));
            assert_ne!(v[0], 0);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(n) => usize::from(*n < u8::MAX),
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0u8..255).prop_map(Tree::Leaf);
        let tree = leaf.prop_recursive(4, 64, 5, |inner| {
            prop::collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let mut rng = TestRng::new(13);
        for _ in 0..50 {
            assert!(depth(&Strategy::new_value(&tree, &mut rng)) <= 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec(any::<u8>(), 0..8),
            flag in prop::bool::ANY,
            name in "[a-z]{1,4}",
        ) {
            if xs.is_empty() {
                return Ok(());
            }
            prop_assert!(name.len() <= 4);
            prop_assert_eq!(xs.len(), xs.iter().filter(|_| true).count());
            prop_assert_ne!(name.len(), 0);
            let _ = flag;
        }
    }
}
