//! In-tree stand-in for `serde_derive`: the derives expand to nothing,
//! which is all the workspace needs — its crates derive but never *call*
//! serde.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
