(* A fixture for test/dead_exports.sh: [retained] has a test caller only,
   while other lib code uses a record field and a local binding of the same
   name. The scan must report it. [publish] has a caller outside test/
   that passes [?src] but not [?retain]: only a test and a call nested in
   the argument of [publish] do. The scan must report [?retain] alone. *)

val publish : ?retain:bool -> ?src:string -> string -> unit
val retained : string -> string option
