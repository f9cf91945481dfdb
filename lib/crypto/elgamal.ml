type public = int64
type private_key = int64

type keypair = { public : public; private_key : private_key }

(* Valid public keys exclude the two subgroup-confinement points that
   survive a bare range check: 1 (the identity) and p − 1 (the unique
   element of order 2). Full membership of <generator> is not cheaply
   decidable in this field, so validation is the standard "partial public
   key validation" of SP 800-56A: canonical encoding + 2 <= y <= p − 2. *)
let valid_public v = v >= 2L && v <= Int64.sub Modp.p 2L

let rec generate rng =
  let x = Modp.random rng in
  let public = Modp.pow_generator x in
  (* x = p − 1 maps to the identity; re-draw rather than hand out a key
     every holder of the group order could forge against. *)
  if valid_public public then { public; private_key = x } else generate rng

type ciphertext = { c1 : int64; c2 : int64 }

let encrypt rng pub m =
  let k = Modp.random rng in
  { c1 = Modp.pow_generator k; c2 = Modp.mul (Modp.of_int64 m) (Modp.pow pub k) }

let decrypt x { c1; c2 } = Modp.mul c2 (Modp.inv (Modp.pow c1 x))

let public_to_string = Int64.to_string

let public_of_string s =
  (* Canonical decimal only: [Int64.of_string_opt] alone would admit hex,
     octal, sign prefixes, underscores and leading zeros, giving one key
     many encodings. Re-encoding and comparing rejects all of them. *)
  match Int64.of_string_opt s with
  | Some v when String.equal (Int64.to_string v) s && valid_public v -> Some v
  | _ -> None

let proves x pub = Modp.pow_generator x = pub
