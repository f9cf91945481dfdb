(* Growable float vectors and order statistics. Percentiles are
   nearest-rank, so every reported value is one that was measured. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* [q] in (0, 1]; [nan] on an empty array. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let percentile t q = rank (sorted t) q

let maximum t = if t.len = 0 then nan else rank (sorted t) 1.0

let median xs = percentile (of_list xs) 0.5

(* The interquartile mean: the mean of the middle half of the values.
   Unlike the median it moves smoothly when the share of a cheap and a
   dear kind of sample shifts a little, where a median lying between the
   two kinds jumps from one to the other. [nan] on no values. *)
let iqm t =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then nan
  else
    let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (hi - lo)

(* First and third quartile, interpolated the way Python's
   [statistics.quantiles(xs, n=4)] does (its default "exclusive" method),
   so a spread printed here matches one computed from the same values
   elsewhere. Needs at least two values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  let m = ld + 1 in
  let at i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (at 1, at 3)
