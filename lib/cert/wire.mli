(** Canonical field encoding for certificate signatures and sizes.

    Fig. 4's signature is [F(principal_id, protected RMC fields, SECRET)].
    For the MAC to protect against field-boundary games every encoded field
    is length-prefixed and tagged, so distinct field lists can never encode
    to the same byte string. The same encoding doubles as the simulated wire
    format when the benchmarks report certificate sizes. *)

type field =
  | Fident : Oasis_util.Ident.t -> field
  | Fstring : string -> field
  | Fvalue : Oasis_util.Value.t -> field
  | Ffloat : float -> field
  | Fint : int -> field
  | Fvalues : Oasis_util.Value.t list -> field

val encode : string -> field list -> string
(** [encode tag fields] — [tag] domain-separates certificate kinds
    (["rmc"], ["appt"], ["audit"]) so a signature for one kind can never
    verify as another. *)

val size_bytes : string -> field list -> int
(** Length of {!encode} plus the 32-byte signature: the certificate's
    simulated wire size, computed from the field lengths without encoding. *)
