//! Message payloads and their accounted wire size.

use std::sync::Arc;

/// A value that can be sent between ranks.
///
/// `payload_bytes` is the number of bytes the value would occupy on the wire;
/// it is used purely for communication accounting (the simulated transport
/// moves the value itself, no serialization happens).
pub trait Payload: Send + 'static {
    /// Accounted wire size of this value in bytes.
    fn payload_bytes(&self) -> usize;
}

macro_rules! impl_payload_prim {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            #[inline]
            fn payload_bytes(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}

impl_payload_prim!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl Payload for String {
    fn payload_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn payload_bytes(&self) -> usize {
        // Fixed-size elements dominate in practice; a length walk keeps the
        // accounting exact for nested payloads too.
        self.iter().map(Payload::payload_bytes).sum::<usize>() + std::mem::size_of::<u64>()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn payload_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::payload_bytes)
    }
}

impl<T: Payload> Payload for Box<T> {
    fn payload_bytes(&self) -> usize {
        self.as_ref().payload_bytes()
    }
}

/// A shared value is accounted at the bytes it points to: sending an `Arc`
/// models shipping the value, while ranks (threads of one process) share it.
impl<T: Payload + Sync> Payload for Arc<T> {
    fn payload_bytes(&self) -> usize {
        self.as_ref().payload_bytes()
    }
}

macro_rules! impl_payload_tuple {
    ($($name:ident),+) => {
        impl<$($name: Payload),+> Payload for ($($name,)+) {
            fn payload_bytes(&self) -> usize {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                0 $(+ $name.payload_bytes())+
            }
        }
    };
}

impl_payload_tuple!(A);
impl_payload_tuple!(A, B);
impl_payload_tuple!(A, B, C);
impl_payload_tuple!(A, B, C, D);
impl_payload_tuple!(A, B, C, D, E);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(3u32.payload_bytes(), 4);
        assert_eq!(3u64.payload_bytes(), 8);
        assert_eq!(true.payload_bytes(), 1);
    }

    #[test]
    fn vec_accounts_elements_plus_header() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.payload_bytes(), 3 * 4 + 8);
    }

    #[test]
    fn nested_vec() {
        let v = vec![vec![1u8, 2], vec![3u8]];
        assert_eq!(v.payload_bytes(), (2 + 8) + (1 + 8) + 8);
    }

    #[test]
    fn tuples_sum_components() {
        assert_eq!((1u8, 2u64).payload_bytes(), 9);
        assert_eq!((1u8, 2u64, 4u32).payload_bytes(), 13);
    }

    #[test]
    fn arc_accounts_the_shared_value() {
        let v = Arc::new(vec![1u32, 2, 3]);
        assert_eq!(v.payload_bytes(), v.as_ref().payload_bytes());
        assert_eq!(Arc::clone(&v).payload_bytes(), 3 * 4 + 8);
    }

    #[test]
    fn option_and_string() {
        assert_eq!(Some(7u64).payload_bytes(), 9);
        assert_eq!(None::<u64>.payload_bytes(), 1);
        assert_eq!("abcd".to_string().payload_bytes(), 4);
    }
}
