(* Flat binary min-heap: keys and values live in three parallel arrays
   (times is an unboxed float array), so pushing an event allocates nothing
   beyond the caller's closure, and popping allocates nothing at all on the
   [pop_min] path. Vacated slots are overwritten with [dummy] so the heap
   never retains a popped value — at 10^6 heartbeat timers, a stale slot
   keeping an event closure (and everything it captures) alive is a leak
   measured in hundreds of megabytes. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let min_capacity = 16

let create ~dummy () = { times = [||]; seqs = [||]; vals = [||]; len = 0; dummy }

let is_empty t = t.len = 0

let size t = t.len

let capacity t = Array.length t.vals

let less t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let ti = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- ti;
  let si = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- si;
  let vi = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- vi

let resize t ncap =
  let ntimes = Array.make ncap 0.0 in
  let nseqs = Array.make ncap 0 in
  let nvals = Array.make ncap t.dummy in
  Array.blit t.times 0 ntimes 0 t.len;
  Array.blit t.seqs 0 nseqs 0 t.len;
  Array.blit t.vals 0 nvals 0 t.len;
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.vals <- nvals

let sift_up t start =
  let i = ref start in
  while !i > 0 && less t !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

let sift_down t start =
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && less t l !smallest then smallest := l;
    if r < t.len && less t r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap t !smallest !i;
      i := !smallest
    end
  done

let push t ~time ~seq value =
  let cap = capacity t in
  if t.len = cap then resize t (max min_capacity (2 * cap));
  t.times.(t.len) <- time;
  t.seqs.(t.len) <- seq;
  t.vals.(t.len) <- value;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

(* Shrinks when occupancy drops below a quarter, so a burst of 10^6 timers
   followed by mass cancellation returns the arrays to the allocator instead
   of pinning the high-water mark forever. *)
let maybe_shrink t =
  let cap = capacity t in
  if cap > min_capacity && t.len < cap / 4 then resize t (max min_capacity (cap / 2))

let remove_min t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.vals.(0) <- t.vals.(t.len)
  end;
  t.vals.(t.len) <- t.dummy;
  if t.len > 0 then sift_down t 0;
  maybe_shrink t

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let value = t.vals.(0) in
  remove_min t;
  value

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let filter_in_place t keep =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    if keep t.vals.(i) then begin
      if !j <> i then begin
        t.times.(!j) <- t.times.(i);
        t.seqs.(!j) <- t.seqs.(i);
        t.vals.(!j) <- t.vals.(i)
      end;
      incr j
    end
  done;
  for i = !j to t.len - 1 do
    t.vals.(i) <- t.dummy
  done;
  t.len <- !j;
  (* Floyd heapify: O(n), cheaper than n pushes. *)
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done;
  maybe_shrink t
