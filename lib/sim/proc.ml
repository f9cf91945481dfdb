open Effect
open Effect.Deep

type 'a ivar_state = Empty of ('a -> unit) list | Full of 'a

type 'a ivar = { mutable state : 'a ivar_state }

type _ Effect.t += Sleep : float -> unit Effect.t
type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let spawn engine body =
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep delay ->
              Some
                (fun (k : (a, unit) continuation) ->
                  ignore (Engine.schedule engine ~after:delay (fun () -> continue k ())))
          | Suspend register ->
              Some (fun (k : (a, unit) continuation) -> register (fun v -> continue k v))
          | _ -> None);
    }
  in
  match_with body () handler

let sleep delay = perform (Sleep delay)

let ivar () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Full _ -> invalid_arg "Proc.fill: ivar already filled"
  | Empty waiters ->
      iv.state <- Full v;
      (* Wake in registration order. *)
      List.iter (fun waiter -> waiter v) (List.rev waiters)

let read iv =
  match iv.state with
  | Full v -> v
  | Empty _ ->
      perform
        (Suspend
           (fun resume ->
             match iv.state with
             | Full v -> resume v
             | Empty waiters -> iv.state <- Empty (resume :: waiters)))
