type policy = {
  base : float;
  factor : float;
  cap : float;
  max_attempts : int;
  jitter : float;
}

let default = { base = 0.05; factor = 2.0; cap = 1.0; max_attempts = 4; jitter = 0.25 }
let fixed n = { base = 0.0; factor = 1.0; cap = 0.0; max_attempts = max 1 n; jitter = 0.0 }

let delay p rng ~attempt =
  let raw = p.base *. (p.factor ** float_of_int (max 0 (attempt - 1))) in
  let capped = Float.min raw p.cap in
  let jittered =
    if p.jitter > 0.0 && capped > 0.0 then capped -. Rng.float rng (capped *. p.jitter)
    else capped
  in
  Float.max 0.0 jittered

let retry p rng ~sleep ?(on_retry = fun ~attempt:_ ~delay:_ -> ()) f =
  let attempts = max 1 p.max_attempts in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error _ as err when attempt >= attempts -> err
    | Error _ ->
        let d = delay p rng ~attempt in
        on_retry ~attempt ~delay:d;
        if d > 0.0 then sleep d;
        go (attempt + 1)
  in
  go 1
