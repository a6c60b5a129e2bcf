//! Stand-in for `serde` in the offline benchmark build: the traits exist so
//! `#[derive(Serialize, Deserialize)]` and trait bounds compile, but nothing
//! is ever serialized (see the `serde_json` stand-in, whose calls return `Err`).

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<T> Deserialize<'_> for T {}

pub mod de {
    pub trait DeserializeOwned {}
    impl<T> DeserializeOwned for T {}
}
