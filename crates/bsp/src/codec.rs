//! Compact little-endian binary codec.
//!
//! Message size is a first-class metric in the paper (every table reports a
//! "message (GB)" column), so serialization must be exact and deterministic.
//! We avoid general-purpose serializers and write values with no framing
//! overhead beyond what the encoding itself needs.
//!
//! Two encoding disciplines coexist:
//!
//! * [`Codec`] — minimal encoding; every channel encodes its own small
//!   message type. This is what the channel system uses.
//! * [`FixedWidth`] — pads every value to a constant width (the size of the
//!   largest enum variant). This reproduces how a C++ Pregel system
//!   instantiates its single message struct "large enough to carry all those
//!   message values" (paper §II-B); the baseline engine uses it.

/// A cursor over received bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Decode one value.
    pub fn get<T: Codec>(&mut self) -> T {
        T::decode(self)
    }
}

/// Types that can be written to / read from a wire buffer.
///
/// Implementations must be loss-free round trips: `decode(encode(x)) == x`.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Self;
    /// Exact encoded size in bytes when it is the same for every value of
    /// the type (used to pre-size buffers and by [`FixedWidth`]).
    const FIXED_SIZE: Option<usize> = None;

    /// Encoded size of this particular value.
    ///
    /// Variable-width types are measured by encoding into a thread-local
    /// scratch buffer whose capacity is reused across calls, so repeated
    /// size queries on the hot path do not allocate.
    fn encoded_size(&self) -> usize {
        match Self::FIXED_SIZE {
            Some(n) => n,
            None => SIZE_SCRATCH.with(|cell| {
                // `take` leaves a fresh Vec behind, so a reentrant
                // `encoded_size` inside `encode` degrades to an allocation
                // instead of corrupting the measurement.
                let mut buf = cell.take();
                buf.clear();
                self.encode(&mut buf);
                let n = buf.len();
                cell.set(buf);
                n
            }),
        }
    }

    /// Append the encodings of `vals` in order: byte for byte what encoding
    /// them one at a time writes, with the buffer grown once when the width
    /// is fixed.
    fn encode_slice(vals: &[Self], buf: &mut Vec<u8>) {
        if let Some(size) = Self::FIXED_SIZE {
            buf.reserve(vals.len() * size);
        }
        for v in vals {
            v.encode(buf);
        }
    }

    /// Decode `count` values written by [`Codec::encode_slice`] — or
    /// `None`, before allocating anything, when the type's width is not
    /// fixed and nonzero or `r` holds fewer bytes than `count` values take.
    /// Counts read off the wire go through here.
    fn decode_slice(r: &mut Reader<'_>, count: usize) -> Option<Vec<Self>> {
        let size = Self::FIXED_SIZE.filter(|&size| size > 0)?;
        let len = count
            .checked_mul(size)
            .filter(|&len| len <= r.remaining())?;
        let mut run = Reader::new(r.take(len));
        Some((0..count).map(|_| Self::decode(&mut run)).collect())
    }
}

thread_local! {
    /// Reusable measuring buffer for [`Codec::encoded_size`].
    static SIZE_SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Self {
                let n = core::mem::size_of::<$t>();
                let b = r.take(n);
                <$t>::from_le_bytes(b.try_into().unwrap())
            }
            const FIXED_SIZE: Option<usize> = Some(core::mem::size_of::<$t>());

            /// One little-endian run, written in a single pass.
            fn encode_slice(vals: &[Self], buf: &mut Vec<u8>) {
                const SIZE: usize = core::mem::size_of::<$t>();
                let at = buf.len();
                buf.resize(at + vals.len() * SIZE, 0);
                for (out, v) in buf[at..].chunks_exact_mut(SIZE).zip(vals) {
                    out.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_slice(r: &mut Reader<'_>, count: usize) -> Option<Vec<Self>> {
                const SIZE: usize = core::mem::size_of::<$t>();
                let len = count.checked_mul(SIZE).filter(|&len| len <= r.remaining())?;
                let le = |b: &[u8]| <$t>::from_le_bytes(b.try_into().expect("a whole value"));
                Some(r.take(len).chunks_exact(SIZE).map(le).collect())
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Codec for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Self {
        r.take(1)[0] != 0
    }
    const FIXED_SIZE: Option<usize> = Some(1);
}

impl Codec for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn decode(_r: &mut Reader<'_>) -> Self {}
    const FIXED_SIZE: Option<usize> = Some(0);
}

macro_rules! tuple_codec {
    ($($name:ident : $idx:tt),+ ; $count:expr) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Self {
                ($($name::decode(r),)+)
            }
            const FIXED_SIZE: Option<usize> = {
                // Sum of member sizes when all members are fixed.
                let mut total = 0usize;
                let mut all_fixed = true;
                $(
                    match $name::FIXED_SIZE {
                        Some(n) => total += n,
                        None => all_fixed = false,
                    }
                )+
                if all_fixed { Some(total) } else { None }
            };
        }
    };
}

tuple_codec!(A:0; 1);
tuple_codec!(A:0, B:1; 2);
tuple_codec!(A:0, B:1, C:2; 3);
tuple_codec!(A:0, B:1, C:2, D:3; 4);
tuple_codec!(A:0, B:1, C:2, D:3, E:4; 5);

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        if r.take(1)[0] == 0 {
            None
        } else {
            Some(T::decode(r))
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        let n = u32::decode(r) as usize;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r));
        }
        out
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        core::array::from_fn(|_| T::decode(r))
    }
    const FIXED_SIZE: Option<usize> = match T::FIXED_SIZE {
        Some(n) => Some(n * N),
        None => None,
    };
}

/// Fixed-width encoding used by the monolithic-message Pregel baseline.
///
/// In a C++ Pregel system the message type is a single struct whose size is
/// the size of its *largest* use (paper §II-B). `WIDTH` models
/// `sizeof(Message)`; every value is padded to it on the wire.
pub trait FixedWidth: Codec {
    /// Constant wire width of every value of this type.
    const WIDTH: usize;

    /// Encode padded to exactly [`Self::WIDTH`] bytes.
    fn encode_fixed(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        self.encode(buf);
        let used = buf.len() - start;
        assert!(
            used <= Self::WIDTH,
            "value encoded to {used} bytes, exceeding declared WIDTH {}",
            Self::WIDTH
        );
        buf.resize(start + Self::WIDTH, 0);
    }

    /// Decode a value that was written with [`FixedWidth::encode_fixed`].
    fn decode_fixed(r: &mut Reader<'_>) -> Self {
        let slab = r.take(Self::WIDTH);
        let mut inner = Reader::new(slab);
        Self::decode(&mut inner)
    }
}

macro_rules! fixed_width_prim {
    ($($t:ty),*) => {$(
        impl FixedWidth for $t {
            const WIDTH: usize = core::mem::size_of::<$t>();
        }
    )*};
}

fixed_width_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<A, B> FixedWidth for (A, B)
where
    A: Codec + FixedWidth,
    B: Codec + FixedWidth,
{
    const WIDTH: usize = A::WIDTH + B::WIDTH;
}

impl<A, B, C> FixedWidth for (A, B, C)
where
    A: Codec + FixedWidth,
    B: Codec + FixedWidth,
    C: Codec + FixedWidth,
{
    const WIDTH: usize = A::WIDTH + B::WIDTH + C::WIDTH;
}

impl<A, B, C, D> FixedWidth for (A, B, C, D)
where
    A: Codec + FixedWidth,
    B: Codec + FixedWidth,
    C: Codec + FixedWidth,
    D: Codec + FixedWidth,
{
    const WIDTH: usize = A::WIDTH + B::WIDTH + C::WIDTH + D::WIDTH;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + core::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r), v);
        assert!(r.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-0.25f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn tuple_roundtrips() {
        roundtrip((1u32, 2u64));
        roundtrip((1u32, 2.0f64, 3u8));
        roundtrip((1u32, 2u32, 3u32, 4u32));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i8));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Some(17u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip([1u32, 2, 3, 4]);
        roundtrip(vec![(1u32, 9.5f64), (2, -1.0)]);
    }

    #[test]
    fn fixed_sizes_are_reported() {
        assert_eq!(u32::FIXED_SIZE, Some(4));
        assert_eq!(<(u32, u64)>::FIXED_SIZE, Some(12));
        assert_eq!(<[u32; 3]>::FIXED_SIZE, Some(12));
        assert_eq!(Vec::<u32>::FIXED_SIZE, None);
        assert_eq!(Option::<u32>::FIXED_SIZE, None);
        assert_eq!(<()>::FIXED_SIZE, Some(0));
    }

    #[test]
    fn encoded_size_matches_actual() {
        let v = vec![1u32, 2, 3];
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(v.encoded_size(), buf.len());
        assert_eq!(7u32.encoded_size(), 4);
    }

    #[test]
    fn encode_slice_matches_one_by_one() {
        fn check<T: Codec>(vals: &[T]) {
            let mut one_by_one = vec![0xAAu8];
            for v in vals {
                v.encode(&mut one_by_one);
            }
            let mut bulk = vec![0xAAu8];
            T::encode_slice(vals, &mut bulk);
            assert_eq!(bulk, one_by_one);
        }
        check(&[1u32, u32::MAX, 7]);
        check(&[1u16, u16::MAX, 0]);
        check(&[u64::MAX, 3]);
        check(&[0.5f64, -0.0, f64::NAN, 1e300]);
        check(&[(1u32, 2.5f64), (3, -1.0)]);
        check(&[vec![1u8, 2], vec![], vec![3]]);
        check::<u64>(&[]);
    }

    /// A slice decodes back from what `encode_slice` wrote, and a count
    /// the bytes cannot back is refused without touching the reader.
    #[test]
    fn decode_slice_inverts_encode_slice_and_refuses_short_input() {
        fn check<T: Codec + PartialEq + core::fmt::Debug>(vals: &[T]) {
            let mut buf = Vec::new();
            T::encode_slice(vals, &mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(T::decode_slice(&mut r, vals.len() + 1), None);
            assert_eq!(r.remaining(), buf.len());
            assert_eq!(T::decode_slice(&mut r, vals.len()).as_deref(), Some(vals));
            assert!(r.is_empty());
        }
        check(&[1u16, u16::MAX, 0]);
        check(&[7u32, u32::MAX]);
        check(&[u64::MAX, 3]);
        check(&[(1u32, 2.5f64), (3, -1.0)]);
        check::<u32>(&[]);
        assert_eq!(
            u32::decode_slice(&mut Reader::new(&[0; 8]), usize::MAX),
            None
        );
        assert_eq!(
            <(u32, u8)>::decode_slice(&mut Reader::new(&[0; 8]), usize::MAX),
            None
        );
        assert_eq!(Vec::<u8>::decode_slice(&mut Reader::new(&[0; 8]), 1), None);
    }

    #[test]
    fn fixed_width_pads_to_constant() {
        // A "message" that is sometimes small: Option<u32> inside a padded
        // slab of 16 bytes (modelling an enum sized to its largest variant).
        #[derive(Debug, PartialEq)]
        struct Msg(Option<u32>);
        impl Codec for Msg {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Self {
                Msg(Option::decode(r))
            }
        }
        impl FixedWidth for Msg {
            const WIDTH: usize = 16;
        }
        for v in [Msg(None), Msg(Some(7))] {
            let mut buf = Vec::new();
            v.encode_fixed(&mut buf);
            assert_eq!(buf.len(), 16);
            let mut r = Reader::new(&buf);
            assert_eq!(Msg::decode_fixed(&mut r), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn fixed_width_tuples() {
        assert_eq!(<(u32, u32)>::WIDTH, 8);
        assert_eq!(<(u32, u32, u32, u32)>::WIDTH, 16);
        let mut buf = Vec::new();
        (1u32, 2u32, 3u32, 4u32).encode_fixed(&mut buf);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeding declared WIDTH")]
    fn fixed_width_overflow_panics() {
        #[derive(Debug)]
        struct Big(Vec<u8>);
        impl Codec for Big {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Self {
                Big(Vec::decode(r))
            }
        }
        impl FixedWidth for Big {
            const WIDTH: usize = 4;
        }
        let mut buf = Vec::new();
        Big(vec![1, 2, 3, 4, 5, 6, 7, 8]).encode_fixed(&mut buf);
    }

    #[test]
    fn sequential_values_in_one_buffer() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        (2u32, 3.0f64).encode(&mut buf);
        true.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get::<u32>(), 1);
        assert_eq!(r.get::<(u32, f64)>(), (2, 3.0));
        assert!(r.get::<bool>());
        assert!(r.is_empty());
    }
}
