(* Seeded open-loop load: Poisson arrivals at a stated rate on the virtual
   clock, and principals drawn Zipf(s = 1.0) so a few are hot and most are
   cold. The generator owns its own stream, split from nothing the
   simulated world draws from, so the world sees only the generated inputs. *)

module Rng = Oasis_util.Rng

type arrivals = { rng : Rng.t; mean_gap : float; mutable due : float }

let arrivals rng ~rate ~start = { rng; mean_gap = 1.0 /. rate; due = start }

let next_due a =
  a.due <- a.due +. Rng.exponential a.rng a.mean_gap;
  a.due

(* Rank r (0-based) has weight 1/(r+1); ranks map to members through a
   seeded permutation, so which members are hot differs from seed to seed. *)
type zipf = { cdf : float array; member : int array }

let zipf rng n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun r c -> cdf.(r) <- c /. total) cdf;
  let member = Array.init n Fun.id in
  Rng.shuffle rng member;
  { cdf; member }

let draw rng z =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  z.member.(!lo)

(* A draw restricted to members satisfying [ok]: redraws a bounded number
   of times, then falls back to a linear scan from a random start so the
   choice stays deterministic and total. [None] if no member qualifies. *)
let draw_where rng z ok =
  let rec go tries =
    if tries = 0 then begin
      let n = Array.length z.member in
      let start = Rng.int rng n in
      let rec scan k =
        if k = n then None
        else
          let m = (start + k) mod n in
          if ok m then Some m else scan (k + 1)
      in
      scan 0
    end
    else
      let m = draw rng z in
      if ok m then Some m else go (tries - 1)
  in
  go 32

(* Picks an index by weights summing to 1. *)
let choose rng weights =
  let u = Rng.float rng 1.0 in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 || u < acc +. weights.(i) then i else go (i + 1) (acc +. weights.(i))
  in
  go 0 0.0
