type t = { tag : string; n : int }

let compare a b =
  let c = String.compare a.tag b.tag in
  if c <> 0 then c else Int.compare a.n b.n

let equal a b = a.n = b.n && String.equal a.tag b.tag

(* Hashes as the pair [(tag, n)] would (same layout), building none. *)
let hash a = Hashtbl.hash a

let string_length a = String.length a.tag + 1 + Printed_length.int a.n

let write buf pos a =
  let tag_length = String.length a.tag in
  Bytes.blit_string a.tag 0 buf pos tag_length;
  Bytes.set buf (pos + tag_length) '#';
  Printed_length.write_int buf (pos + tag_length + 1) a.n

let to_string a =
  let buf = Bytes.create (string_length a) in
  ignore (write buf 0 a);
  Bytes.unsafe_to_string buf

let pp ppf a = Format.pp_print_string ppf (to_string a)

let tag a = a.tag

let number a = a.n

type gen = { gtag : string; mutable next : int }

let generator gtag = { gtag; next = 0 }

let fresh g =
  let n = g.next in
  g.next <- n + 1;
  { tag = g.gtag; n }

let make tag n = { tag; n }

let of_string s =
  match String.rindex_opt s '#' with
  | None -> None
  | Some i ->
      let tag = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt rest with
      | Some n when n >= 0 && tag <> "" -> Some { tag; n }
      | _ -> None)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hash = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Tbl = Hashtbl.Make (Hash)
