(* A fixture for test/dead_exports.sh: [retained] has a test caller only,
   while other lib code uses a record field and a local binding of the same
   name. The scan must report it. *)

val publish : string -> unit
val retained : string -> string option
