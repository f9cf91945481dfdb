(** Certificate marshalling.

    Serialises RMCs and appointment certificates to the tagged,
    length-prefixed byte format of {!Wire} and parses them back with
    {!Wire.decode}, adding only each certificate's shape, its 32-byte
    signature and NaN-free timestamps. The decoder is total: malformed input yields [Error], never an exception — parsing
    adversarial bytes is exactly the attack surface a deployed OASIS node
    exposes. Signatures travel with the certificate; tampering with the
    serialised bytes is caught by signature verification after decode, not
    by the decoder. *)

type error = Wire.error = { offset : int; reason : string }

val pp_error : Format.formatter -> error -> unit

val rmc_to_string : Rmc.t -> string
val rmc_of_string : string -> (Rmc.t, error) result

val appointment_to_string : Appointment.t -> string
val appointment_of_string : string -> (Appointment.t, error) result
