//! The codec machinery both binary formats share: the wire [`Frame`]s of
//! [`crate::protocol`] and the CAVR records of [`crate::replay`].
//!
//! Each format is declared once, as one [`wire_enum!`] table: a row per
//! variant, `Name = 0xNN { field: Type, … }`, doc comments included. The
//! macro generates the enum, the per-variant field encode and the
//! type-byte-dispatched decode from that one list, and refuses to compile
//! a table that gives two rows one type byte. Fields travel in row order,
//! each through its [`Wire`] impl: integers little-endian, floats as their
//! IEEE-754 bit patterns, `bool` and `Option` behind a `{0,1}` tag,
//! strings behind a `u16` byte length. Structs that travel whole
//! ([`DecisionRequest`], [`DecisionResponse`], the stats snapshot) get
//! their codec from [`wire_struct!`], their fields again in order.
//!
//! Both formats frame a body the same way, `[u32 length][u8 type][…]`, and
//! this file states that rule once: [`body_len`] is the `1..=MAX_FRAME_LEN`
//! check, [`next_body`] waits for the whole body, and [`put_prefixed`]
//! writes a prefix and refuses a body over the cap.
//!
//! [`Frame`]: crate::protocol::Frame

use crate::protocol::{WireError, MAX_FRAME_LEN};
use abr_sim::{DecisionRequest, DecisionResponse};

/// Bounds-checked cursor over one body: every read fails with
/// [`WireError::BadPayload`] instead of slicing out of range.
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::BadPayload("payload shorter than declared"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(raw)
    }

    /// Succeed only if the whole body was read, so an encoder bug cannot
    /// hide behind bytes the decoder never looked at.
    pub(crate) fn all_read(&self) -> Result<(), WireError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }
}

/// One field codec: how a value is appended to a body and read back.
pub(crate) trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(cur: &mut Cur<'_>) -> Result<Self, WireError>;
}

macro_rules! le_integers {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(cur: &mut Cur<'_>) -> Result<$t, WireError> {
                cur.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

le_integers!(u8, u16, u32, u64);

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(cur: &mut Cur<'_>) -> Result<f64, WireError> {
        u64::get(cur).map(f64::from_bits)
    }
}

/// An index travels as a `u64`, so a 32-bit peer reads what a 64-bit one
/// wrote or refuses it.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(cur: &mut Cur<'_>) -> Result<usize, WireError> {
        usize::try_from(u64::get(cur)?).map_err(|_| WireError::BadPayload("index exceeds usize"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(cur: &mut Cur<'_>) -> Result<bool, WireError> {
        match u8::get(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("bool tag outside {0,1}")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(cur: &mut Cur<'_>) -> Result<Option<T>, WireError> {
        match u8::get(cur)? {
            0 => Ok(None),
            1 => T::get(cur).map(Some),
            _ => Err(WireError::BadPayload("option tag outside {0,1}")),
        }
    }
}

/// A `u16` byte length, then the UTF-8 bytes. A longer string is cut at
/// `u16::MAX` bytes; only handshake and error frames and record labels
/// carry strings, so the steady-state `Decide`/`Decision` path never
/// reaches here.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
        len.put(out);
        out.extend_from_slice(&bytes[..usize::from(len)]);
    }

    fn get(cur: &mut Cur<'_>) -> Result<String, WireError> {
        let len = usize::from(u16::get(cur)?);
        // Validate in place, then make exactly one right-sized copy.
        std::str::from_utf8(cur.take(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadPayload("invalid UTF-8"))
    }
}

/// Declare a struct whose fields travel in declaration order, or (second
/// form) give a struct declared elsewhere that codec by listing its fields
/// in wire order.
macro_rules! wire_struct {
    (
        $(#[$m:meta])*
        pub struct $S:ident { $( $(#[$fm:meta])* pub $f:ident: $T:ty, )* }
    ) => {
        $(#[$m])*
        pub struct $S { $( $(#[$fm])* pub $f: $T, )* }
        $crate::codec::wire_struct!($S { $($f),* });
    };
    ($S:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $S {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Wire::put(&self.$f, out); )*
            }

            fn get(
                cur: &mut $crate::codec::Cur<'_>,
            ) -> Result<$S, $crate::protocol::WireError> {
                Ok($S { $( $f: $crate::codec::Wire::get(cur)? ),* })
            }
        }
    };
}
pub(crate) use wire_struct;

wire_struct!(DecisionRequest {
    chunk_index,
    buffer_s,
    estimated_bandwidth_bps,
    last_level,
    latest_throughput_bps,
    wall_time_s,
    startup_complete,
    visible_chunks,
});

wire_struct!(DecisionResponse { level, degraded });

/// Declare a format's table: an enum whose rows are
/// `Name = 0xNN { field: Type, … }` (a struct variant),
/// `Name = 0xNN (field: Type)` (a one-field tuple variant, named here only
/// so the codec can bind it) or `Name = 0xNN` (a unit variant). Generates
/// the enum, `put_fields` (append a value's fields, return its type byte)
/// and `get_fields` (read the fields of a type byte, `None` outside the
/// table).
macro_rules! wire_enum {
    (
        $(#[$m:meta])*
        pub enum $E:ident {
            $(
                $(#[$vm:meta])*
                $V:ident = $ty:literal
                $( { $( $(#[$fm:meta])* $f:ident: $T:ty ),* $(,)? } )?
                $( ( $tf:ident: $tT:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        pub enum $E {
            $(
                $(#[$vm])*
                $V $( { $( $(#[$fm])* $f: $T ),* } )? $( ($tT) )?,
            )*
        }

        const _: () = {
            let tys: &[u8] = &[$($ty),*];
            let mut i = 0;
            while i < tys.len() {
                let mut j = i + 1;
                while j < tys.len() {
                    assert!(tys[i] != tys[j], "two rows share a type byte");
                    j += 1;
                }
                i += 1;
            }
        };

        impl $E {
            /// Append this value's fields to `out` in table order and
            /// return its type byte.
            pub(crate) fn put_fields(&self, out: &mut Vec<u8>) -> u8 {
                match self {
                    $(
                        $E::$V $( { $($f),* } )? $( ($tf) )? => {
                            $( $( $crate::codec::Wire::put($f, out); )* )?
                            $( $crate::codec::Wire::put($tf, out); )?
                            $ty
                        }
                    )*
                }
            }

            /// Read the fields of type byte `ty` in table order; `None`
            /// when `ty` names no row.
            pub(crate) fn get_fields(
                ty: u8,
                cur: &mut $crate::codec::Cur<'_>,
            ) -> Result<Option<$E>, $crate::protocol::WireError> {
                Ok(Some(match ty {
                    $(
                        $ty => $E::$V
                            $( { $( $f: $crate::codec::Wire::get(cur)? ),* } )?
                            $( (<$tT as $crate::codec::Wire>::get(cur)?) )?,
                    )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}
pub(crate) use wire_enum;

/// The length-prefix rule of both formats: a little-endian `u32` declaring
/// `1..=MAX_FRAME_LEN` body bytes (type byte included). Anything else is a
/// corrupt or hostile prefix, refused before a byte of body is allocated.
pub(crate) fn body_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    Ok(len as usize) // bounded by MAX_FRAME_LEN above
}

/// The first length-prefixed body at the front of `buf`, once its prefix
/// and every body byte are there (`Ok(None)` until then).
pub(crate) fn next_body(buf: &[u8]) -> Result<Option<&[u8]>, WireError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = body_len(*prefix)?;
    Ok(buf.get(4..4 + len))
}

/// Append one length-prefixed body to `out`: the prefix, a type byte, then
/// what `write` appends (it returns the type byte). Returns the body's
/// full length (prefix included) and type byte. A body over
/// [`MAX_FRAME_LEN`] is taken back out of `out`, so a failed encode never
/// leaves partial bytes in a batching buffer, and its length is the error.
pub(crate) fn put_prefixed(
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>) -> u8,
) -> Result<(u32, u8), usize> {
    let start = out.len();
    // Length prefix and type byte, both patched once the body is written.
    out.extend_from_slice(&[0u8; 5]);
    let ty = write(out);
    let body_len = out.len() - start - 4;
    let Some(len) = u32::try_from(body_len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
    else {
        out.truncate(start);
        return Err(body_len);
    };
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = ty;
    Ok((4 + len, ty))
}
