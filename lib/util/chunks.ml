let chunk_size = 65536

(* Chunk [i] holds bytes [i * chunk_size ..]; every chunk before the last
   is full. [chunks] grows by doubling, but it holds only pointers. *)
type t = { mutable chunks : Bytes.t array; mutable length : int }

let create () = { chunks = [||]; length = 0 }
let length t = t.length

let check t pos len name = if pos < 0 || len < 0 || pos + len > t.length then invalid_arg name

(* Fills the tail chunk, then fresh ones; allocates nothing but chunks. *)
let add_sub t b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Chunks.add_sub";
  let pos = ref pos and stop = pos + len in
  while !pos < stop do
    let i = t.length / chunk_size and off = t.length mod chunk_size in
    if off = 0 then begin
      if i = Array.length t.chunks then begin
        let grown = Array.make (max 4 (2 * i)) Bytes.empty in
        Array.blit t.chunks 0 grown 0 i;
        t.chunks <- grown
      end;
      t.chunks.(i) <- Bytes.create chunk_size
    end;
    let n = min (stop - !pos) (chunk_size - off) in
    Bytes.blit b !pos t.chunks.(i) off n;
    t.length <- t.length + n;
    pos := !pos + n
  done

let of_string s =
  let t = create () in
  add_sub t (Bytes.of_string s) 0 (String.length s);
  t

let get t pos =
  check t pos 1 "Chunks.get";
  Bytes.get t.chunks.(pos / chunk_size) (pos mod chunk_size)

let set t pos c =
  check t pos 1 "Chunks.set";
  Bytes.set t.chunks.(pos / chunk_size) (pos mod chunk_size) c

let sub_string t pos len =
  check t pos len "Chunks.sub_string";
  let b = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let at = pos + !copied in
    let n = min (len - !copied) (chunk_size - (at mod chunk_size)) in
    Bytes.blit t.chunks.(at / chunk_size) (at mod chunk_size) b !copied n;
    copied := !copied + n
  done;
  Bytes.unsafe_to_string b
