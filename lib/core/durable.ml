(* Simulated durable storage: string-keyed chunk stores that survive a
   node crash (crash/restart hooks drop only in-memory state; nothing ever
   clears this store except its owner). A service's decision log writes
   into the chunk store it keeps here and resumes from it on restart.
   [corrupt] is the adversary move for the fail-closed resume tests: flip
   one byte of what is on "disk" while the node is down. *)

module Chunks = Oasis_util.Chunks

type t = { stores : (string, Chunks.t) Hashtbl.t }

let create () = { stores = Hashtbl.create 16 }
let set t key chunks = Hashtbl.replace t.stores key chunks
let find t key = Hashtbl.find_opt t.stores key

let corrupt t key ~byte =
  match Hashtbl.find_opt t.stores key with
  | None -> false
  | Some c when Chunks.length c = 0 -> false
  | Some c ->
      let n = Chunks.length c in
      let i = ((byte mod n) + n) mod n in
      Chunks.set c i (Char.chr (Char.code (Chunks.get c i) lxor 1));
      true
