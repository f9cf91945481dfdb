module Ident = Oasis_util.Ident

module Entry_set = Set.Make (struct
  type t = Ident.t * string (* principal, operation *)

  let compare (p1, o1) (p2, o2) =
    let c = Ident.compare p1 p2 in
    if c <> 0 then c else String.compare o1 o2
end)

type t = { objects : (string, Entry_set.t ref) Hashtbl.t; mutable ops : int }

let create () = { objects = Hashtbl.create 256; ops = 0 }

let add_object t obj =
  if not (Hashtbl.mem t.objects obj) then begin
    Hashtbl.replace t.objects obj (ref Entry_set.empty);
    t.ops <- t.ops + 1
  end

let find t obj =
  match Hashtbl.find_opt t.objects obj with
  | Some acl -> acl
  | None -> invalid_arg (Printf.sprintf "Acl: unknown object %s" obj)

let grant t ~principal ~obj ~operation =
  let acl = find t obj in
  if not (Entry_set.mem (principal, operation) !acl) then begin
    acl := Entry_set.add (principal, operation) !acl;
    t.ops <- t.ops + 1
  end

let revoke t ~principal ~obj ~operation =
  let acl = find t obj in
  if Entry_set.mem (principal, operation) !acl then begin
    acl := Entry_set.remove (principal, operation) !acl;
    t.ops <- t.ops + 1
  end

let check t ~principal ~obj ~operation =
  match Hashtbl.find_opt t.objects obj with
  | Some acl -> Entry_set.mem (principal, operation) !acl
  | None -> false

let offboard t principal =
  let touched = ref 0 in
  Hashtbl.iter
    (fun _obj acl ->
      let before = Entry_set.cardinal !acl in
      acl := Entry_set.filter (fun (p, _) -> not (Ident.equal p principal)) !acl;
      let removed = before - Entry_set.cardinal !acl in
      touched := !touched + removed)
    t.objects;
  t.ops <- t.ops + !touched;
  !touched

let admin_ops t = t.ops

let entry_count t =
  Hashtbl.fold (fun _ acl acc -> acc + Entry_set.cardinal !acl) t.objects 0
