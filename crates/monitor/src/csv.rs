//! The one CSV row encoder behind every table the output layer writes.
//!
//! A row is encoded straight into a byte buffer, cell by cell: every `push_*`
//! appends its cell and a `,`, and the end of the row turns the last `,` into
//! a line break. Integers are written from a digit buffer. A float is written
//! as integer digits when it is integral and `|v| < 2^53` (not `-0.0`); as
//! the shortest digits that read back to it (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018), laid out without an exponent, when it is not
//! integral and `2^-100 <= |v| < 2^53`; and through `Display` otherwise (NaN,
//! infinities, tiny and huge magnitudes). Each path prints exactly what std's
//! `Display` prints. [`Row::push_time`] keeps a one-entry memo: event rows
//! repeat the previous row's timestamp about half of the time, and then its
//! digits are copied instead of formatted again.
//!
//! [`write_rows`] hands the buffer to a writer in chunks of about 64 KB, so a
//! file costs one buffer however many rows it has; [`render_rows`] keeps
//! everything in one buffer sized by the caller.

use std::fmt;
use std::io::{self, Write};

/// Bytes [`write_rows`] collects before handing them to the writer.
const CHUNK: usize = 1 << 16;

/// Headroom past [`CHUNK`] so the row that crosses it does not regrow the
/// buffer.
const ROW_SLACK: usize = 1 << 10;

/// The longest timestamp rendering [`Row::push_time`] remembers; longer ones
/// (only extreme magnitudes) are formatted every time.
const MEMO_BYTES: usize = 32;

/// `"00" "01" … "99"`: two digits per table lookup.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// 2^53: below it every integral `f64` prints as its integer digits.
const EXACT_INTEGRAL: f64 = 9_007_199_254_740_992.0;

/// 2^-100: from here up to [`EXACT_INTEGRAL`] a non-integral float goes
/// through [`Row::push_shortest`], whose multipliers need only 5^0..=5^48.
const SHORTEST_MIN: f64 = f64::from_bits((1023 - 100) << 52);

/// 5^i scaled to exactly 125 bits (`5^i << (125 - bits(5^i))`): the exact
/// multipliers Ryū's `e2 < 0` step reads for every exponent at or above
/// [`SHORTEST_MIN`].
const POW5: [u128; 49] = {
    let mut table = [0u128; 49];
    let mut pow = 1u128;
    let mut i = 0;
    while i < table.len() {
        table[i] = pow << (pow.leading_zeros() - 3);
        pow *= 5;
        i += 1;
    }
    table
};

/// `⌊m · mul / 2^j⌋` for `m < 2^55`, a [`POW5`] row and `j >= 64`, without
/// the 180-bit product.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The decimal digits of `v` at the end of `digits`; returns where they start.
fn digits_of(mut v: u64, digits: &mut [u8; 20]) -> usize {
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    at
}

/// The bits and digits of the last timestamp written.
struct Memo {
    bits: u64,
    len: usize,
    digits: [u8; MEMO_BYTES],
}

/// The encoder: the buffer rows are encoded into, plus the timestamp memo.
pub(crate) struct Row {
    buf: Vec<u8>,
    memo: Memo,
}

impl Row {
    fn new(buf: Vec<u8>) -> Self {
        Row {
            buf,
            memo: Memo {
                bits: 0,
                len: 0,
                digits: [0; MEMO_BYTES],
            },
        }
    }

    fn end_row(&mut self) {
        if let Some(last) = self.buf.last_mut() {
            *last = b'\n';
        }
    }

    /// An unsigned integer cell.
    pub(crate) fn push_u64(&mut self, v: u64) {
        let mut digits = [0u8; 20];
        let at = digits_of(v, &mut digits);
        self.buf.extend_from_slice(&digits[at..]);
        self.buf.push(b',');
    }

    /// A signed integer cell.
    pub(crate) fn push_i64(&mut self, v: i64) {
        if v < 0 {
            self.buf.push(b'-');
        }
        self.push_u64(v.unsigned_abs());
    }

    /// An unsigned counter as the tables have always printed it: through a
    /// signed 64-bit cell, so values above `i64::MAX` (never produced by a
    /// run) keep the bytes they had.
    pub(crate) fn push_counter(&mut self, v: u64) {
        self.push_i64(v as i64);
    }

    /// A float cell, byte for byte what `format!("{v}")` prints: integer
    /// digits or [`Row::push_shortest`] in `|v| < 2^53`, `Display` outside it.
    pub(crate) fn push_f64(&mut self, v: f64) {
        let integral = v as i64;
        let magnitude = v.abs();
        if magnitude < EXACT_INTEGRAL
            && integral as f64 == v
            && !(integral == 0 && v.is_sign_negative())
        {
            self.push_i64(integral);
        } else if (SHORTEST_MIN..EXACT_INTEGRAL).contains(&magnitude) {
            self.push_shortest(v);
        } else {
            write!(self.buf, "{v},").expect("writing to a Vec cannot fail");
        }
    }

    /// A non-integral float with `2^-100 <= |v| < 2^53`: the shortest digits
    /// that read back to `v` (the nearest such digits, ties rounded up), laid
    /// out as `Display` lays them out, `0.000ddd` or `ddd.ddd`.
    ///
    /// This is Ryū's `d2d` for a binary exponent `e2 < 0`, which covers every
    /// float in that range, without three of its steps, which here either
    /// never change a digit or would change one wrongly:
    /// - round half to even: at an exact tie between two shortest candidates
    ///   std takes the upper one, so the tie falls to `last_removed >= 5`;
    /// - the trailing-zero flags of `vr`, which only that step read;
    /// - the fix-ups for exact interval bounds (`q <= 1`, i.e. `v >= 2^50`):
    ///   there a bound is an odd multiple of half an ulp, so it scales to an
    ///   integer ending in 5 and is never a candidate.
    fn push_shortest(&mut self, v: f64) {
        let bits = v.to_bits();
        let fraction = bits & ((1 << 52) - 1);
        let m2 = fraction | (1 << 52);
        // v = 4·m2 · 2^e2: two extra bits for the interval bounds.
        let minus_e2 = 1077 - ((bits >> 52) & 0x7ff) as u32;
        // At a power of two the gap below v is half the gap above it.
        let mm_shift = u64::from(fraction != 0);

        // Scale the interval around 4·m2 by 10^-e10 = 2^-q · 5^i, where
        // q = ⌊log10 5^-e2⌋ - 1 (`minus_e2 >= 2` here) and the shift
        // takes out the 125 - bits(5^i) bits the table row was scaled by.
        let q = ((minus_e2 * 732_923) >> 20) - 1;
        let i = minus_e2 - q;
        let j = q + 125 - (((i * 1_217_359) >> 19) + 1);
        let mul = POW5[i as usize];
        let mut vr = mul_shift(4 * m2, mul, j);
        let mut vp = mul_shift(4 * m2 + 2, mul, j);
        let mut vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);

        // Drop digits while the interval still holds a shorter number.
        let mut removed = 0;
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        let output = vr + u64::from(vr == vm || last_removed >= 5);

        let mut digits = [0u8; 20];
        let at = digits_of(output, &mut digits);
        let digits = &digits[at..];
        // Digits before the decimal point: v = 0.digits · 10^point.
        let point = digits.len() as i32 + removed + q as i32 - minus_e2 as i32;
        // A decimal at or past the point would be an integer, and the
        // interval around a non-integral float holds none.
        debug_assert!(point < digits.len() as i32, "{v:?}");
        if v < 0.0 {
            self.buf.push(b'-');
        }
        if point <= 0 {
            self.buf.extend_from_slice(b"0.");
            self.buf
                .resize(self.buf.len() + point.unsigned_abs() as usize, b'0');
            self.buf.extend_from_slice(digits);
        } else {
            let (int, frac) = digits.split_at(point as usize);
            self.buf.extend_from_slice(int);
            self.buf.push(b'.');
            self.buf.extend_from_slice(frac);
        }
        self.buf.push(b',');
    }

    /// A float cell that repeats the previous `push_time` value's digits when
    /// its bits are the same.
    pub(crate) fn push_time(&mut self, v: f64) {
        let bits = v.to_bits();
        let memo = &self.memo;
        if memo.len > 0 && memo.bits == bits {
            self.buf.extend_from_slice(&memo.digits[..memo.len]);
            return;
        }
        let start = self.buf.len();
        self.push_f64(v);
        let cell = &self.buf[start..];
        let memo = &mut self.memo;
        if cell.len() <= MEMO_BYTES {
            memo.digits[..cell.len()].copy_from_slice(cell);
            memo.bits = bits;
            memo.len = cell.len();
        } else {
            memo.len = 0;
        }
    }

    /// A cell whose text needs no quoting (a label or a header).
    pub(crate) fn push_label(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(b',');
    }

    /// A text cell: quoted (inner quotes doubled) when it contains a comma, a
    /// quote or a line break (RFC 4180), verbatim otherwise.
    pub(crate) fn push_text(&mut self, s: &str) {
        if !s.contains([',', '"', '\n', '\r']) {
            return self.push_label(s);
        }
        self.buf.push(b'"');
        let mut parts = s.split('"');
        self.buf
            .extend_from_slice(parts.next().unwrap_or("").as_bytes());
        for part in parts {
            self.buf.extend_from_slice(b"\"\"");
            self.buf.extend_from_slice(part.as_bytes());
        }
        self.buf.extend_from_slice(b"\",");
    }

    /// A cell rendered by std formatting (e.g. a fixed number of decimals).
    pub(crate) fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.buf
            .write_fmt(args)
            .expect("writing to a Vec cannot fail");
        self.buf.push(b',');
    }

    /// The header line, then one line per row, each handed to `drain` after
    /// it is complete.
    fn fill<T>(
        &mut self,
        header: &str,
        rows: impl IntoIterator<Item = T>,
        mut encode: impl FnMut(&mut Row, T),
        mut drain: impl FnMut(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.push_label(header);
        self.end_row();
        for row in rows {
            encode(self, row);
            self.end_row();
            drain(&mut self.buf)?;
        }
        Ok(())
    }
}

/// Writes `header` and one CSV line per item of `rows` (cells pushed by
/// `encode`) to `out`, through one reused buffer of about 64 KB.
pub(crate) fn write_rows<W: Write, T>(
    out: &mut W,
    header: &str,
    rows: impl IntoIterator<Item = T>,
    encode: impl FnMut(&mut Row, T),
) -> io::Result<()> {
    let mut row = Row::new(Vec::with_capacity(CHUNK + ROW_SLACK));
    row.fill(header, rows, encode, |buf| {
        if buf.len() >= CHUNK {
            out.write_all(buf)?;
            buf.clear();
        }
        Ok(())
    })?;
    out.write_all(&row.buf)
}

/// The same bytes as [`write_rows`], as one string in a buffer of `capacity`
/// bytes reserved up front (it grows if the estimate was short).
pub(crate) fn render_rows<T>(
    capacity: usize,
    header: &str,
    rows: impl IntoIterator<Item = T>,
    encode: impl FnMut(&mut Row, T),
) -> String {
    let mut row = Row::new(Vec::with_capacity(capacity));
    row.fill(header, rows, encode, |_| Ok(()))
        .expect("a buffer is never drained");
    String::from_utf8(row.buf).expect("CSV built from str and number formatting is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the encoder appended for one cell, without its `,`.
    fn cell(push: impl FnOnce(&mut Row)) -> String {
        let mut row = Row::new(Vec::new());
        push(&mut row);
        assert_eq!(row.buf.pop(), Some(b','));
        String::from_utf8(row.buf).unwrap()
    }

    /// A small deterministic generator (SplitMix64) for random bit patterns.
    fn patterns(n: usize) -> impl Iterator<Item = u64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn integers_match_display() {
        let edges = [0, 1, 9, 10, 99, 100, 101, 999, 1_000, 12_345, u64::MAX];
        let powers = (0..20)
            .map(|p| 10u64.pow(p))
            .flat_map(|v| [v - 1, v, v + 1]);
        for v in edges.into_iter().chain(powers).chain(patterns(20_000)) {
            assert_eq!(cell(|r| r.push_u64(v)), format!("{v}"));
            let signed = v as i64;
            assert_eq!(cell(|r| r.push_i64(signed)), format!("{signed}"));
            assert_eq!(cell(|r| r.push_counter(v)), format!("{signed}"));
        }
        for v in [i64::MIN, i64::MIN + 1, -1, i64::MAX] {
            assert_eq!(cell(|r| r.push_i64(v)), format!("{v}"));
        }
    }

    /// `per_binade` random mantissas in each binade of `[2^-100, 2^53)`,
    /// signs alternating.
    fn binades(per_binade: usize) -> impl Iterator<Item = f64> {
        patterns(153 * per_binade)
            .enumerate()
            .map(move |(n, bits)| {
                let exponent = (1023 - 100 + n / per_binade) as u64;
                let sign = (n as u64 % 2) << 63;
                f64::from_bits(sign | exponent << 52 | bits >> 12)
            })
    }

    /// Random non-integral values in `[2^46, 2^52)`, where exact ties
    /// between two shortest candidates occur.
    fn tie_class(n: usize) -> impl Iterator<Item = f64> {
        patterns(n)
            .map(|bits| f64::from_bits((1023 + 46 + bits % 6) << 52 | bits >> 12))
            .filter(|v| v.fract() != 0.0)
    }

    fn assert_float_cells_match_display(values: impl IntoIterator<Item = f64>) {
        for v in values {
            let display = format!("{v}");
            assert_eq!(cell(|r| r.push_f64(v)), display, "{:#x}", v.to_bits());
            assert_eq!(cell(|r| r.push_time(v)), display, "{:#x}", v.to_bits());
        }
    }

    #[test]
    fn floats_match_display() {
        let two53 = EXACT_INTEGRAL;
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            -(two53 - 1.0),
            -two53,
            1e15,
            1e16,
            1e21,
            -1e21,
            1e-7,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            0.1 + 0.2,
        ];
        // A tie between two shortest candidates: std takes the upper one
        // (`…342.3`), Ryū's round-half-even the lower.
        let tie = f64::from_bits(0x430a_6227_7df0_9632);
        assert_eq!(cell(|r| r.push_f64(tie)), "928283893830342.3");
        let shortest_edges = [
            tie,
            -tie,
            SHORTEST_MIN,
            -SHORTEST_MIN,
            SHORTEST_MIN.next_down(),
            SHORTEST_MIN.next_up(),
            4_503_599_627_370_495.5,
            -4_503_599_627_370_495.5,
        ];
        // Powers of two take the branch with the narrower gap below.
        let powers = (1..=101).map(|k| 0.5f64.powi(k));
        let random = patterns(20_000).map(f64::from_bits);
        let integral = patterns(20_000).map(|b| f64::from_bits(b).trunc());
        let small = patterns(20_000).map(|b| (b % 20_000_000) as f64 / 8.0 - 1e6);
        assert_float_cells_match_display(
            edges
                .into_iter()
                .chain(random)
                .chain(integral)
                .chain(small)
                .chain(shortest_edges)
                .chain(powers)
                .chain(binades(2_000))
                .chain(tie_class(20_000)),
        );
        assert_eq!(cell(|r| r.push_f64(f64::MAX)).len(), 309);
    }

    /// 10.6M values through the shortest-digits path (64,000 per binade
    /// plus the 835,837 non-integral ones of 1M tie-class draws); run with
    /// `cargo test --release -p cgsim-monitor -- --include-ignored`.
    #[test]
    #[ignore = "a long sweep: run it in release builds"]
    fn floats_match_display_across_every_binade() {
        assert_float_cells_match_display(binades(64_000).chain(tie_class(1_000_000)));
    }

    #[test]
    fn the_time_memo_repeats_only_equal_bits() {
        let mut row = Row::new(Vec::new());
        for v in [
            110.25,
            110.25,
            7.5,
            110.25,
            0.0,
            -0.0,
            0.0,
            f64::MAX,
            f64::MAX,
            1.0,
        ] {
            row.push_time(v);
        }
        let max = format!("{}", f64::MAX);
        assert_eq!(
            String::from_utf8(row.buf).unwrap(),
            format!("110.25,110.25,7.5,110.25,0,-0,0,{max},{max},1,")
        );
    }

    #[test]
    fn text_is_quoted_on_commas_quotes_and_line_breaks_only() {
        for (raw, quoted) in [
            ("CERN", "CERN"),
            ("", ""),
            ("a b;c'd", "a b;c'd"),
            ("a,b", "\"a,b\""),
            ("say \"hi\"", "\"say \"\"hi\"\"\""),
            ("\"", "\"\"\"\""),
            ("two\nlines", "\"two\nlines\""),
            ("cr\rlf\r\n", "\"cr\rlf\r\n\""),
        ] {
            assert_eq!(cell(|r| r.push_text(raw)), quoted, "{raw:?}");
        }
    }

    #[test]
    fn written_and_rendered_rows_are_the_same_bytes() {
        let rows: Vec<u64> = (0..20_000).collect();
        let encode = |r: &mut Row, &v: &u64| {
            r.push_u64(v);
            r.push_time((v / 3) as f64 * 0.25);
            r.push_text(if v % 7 == 0 { "a,b" } else { "x" });
        };
        let mut written = Vec::new();
        write_rows(&mut written, "id,t,s", &rows, encode).unwrap();
        let rendered = render_rows(0, "id,t,s", &rows, encode);
        assert!(written.len() > 4 * CHUNK, "spans several chunks");
        assert_eq!(written, rendered.as_bytes());
        assert!(rendered.starts_with("id,t,s\n0,0,\"a,b\"\n1,0,x\n"));
        assert!(rendered.ends_with("\n19998,1666.5,x\n19999,1666.5,\"a,b\"\n"));
    }
}
