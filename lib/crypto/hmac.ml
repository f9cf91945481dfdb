let block_size = 64

(* key ⊕ ipad and key ⊕ opad are built in turn in one 64-byte scratch: the
   key (hashed first if longer than a block, zero-padded otherwise) is
   xored with 0x36, fed, then xored with 0x36 ⊕ 0x5c in place. *)
let mac ~key msg =
  let key = if String.length key > block_size then Sha256.(to_raw_string (digest_string key)) else key in
  let pad = Bytes.make block_size '\x36' in
  for i = 0 to String.length key - 1 do
    Bytes.set pad i (Char.chr (Char.code key.[i] lxor 0x36))
  done;
  let inner = Sha256.init () in
  Sha256.feed_bytes inner pad;
  Sha256.feed_string inner msg;
  let inner_digest = Sha256.finalize inner in
  for i = 0 to block_size - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor (0x36 lxor 0x5c)))
  done;
  let outer = Sha256.init () in
  Sha256.feed_bytes outer pad;
  Sha256.feed_string outer (Sha256.to_raw_string inner_digest);
  Sha256.finalize outer

let verify ~key msg expected = Sha256.equal_ct (mac ~key msg) expected

let derive_key ~key label =
  Sha256.to_raw_string (mac ~key ("oasis-kdf\x00" ^ label))
