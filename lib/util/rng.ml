type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }


(* splitmix64: Steele, Lea & Flood, OOPSLA 2014. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  (* 53 random bits mapped into [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bernoulli t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b
