type t = { mutable current : float }

let manual ?(start = 0.0) () = { current = start }

let now t = t.current

let advance_to t time =
  if time < t.current then
    invalid_arg
      (Printf.sprintf "Clock.advance_to: %g is before current time %g" time t.current);
  t.current <- time

