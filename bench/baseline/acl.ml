module Ident = Oasis_util.Ident

(* Each object's entries, plus every principal's (object, operation) pairs,
   so offboarding visits only the leaver's own entries. *)
type t = {
  objects : (string, (Ident.t * string, unit) Hashtbl.t) Hashtbl.t;
  by_principal : (string * string, unit) Hashtbl.t Ident.Tbl.t;
  mutable ops : int;
}

let create () = { objects = Hashtbl.create 256; by_principal = Ident.Tbl.create 256; ops = 0 }

let add_object t obj =
  if not (Hashtbl.mem t.objects obj) then begin
    Hashtbl.replace t.objects obj (Hashtbl.create 16);
    t.ops <- t.ops + 1
  end

let find t obj =
  match Hashtbl.find_opt t.objects obj with
  | Some acl -> acl
  | None -> invalid_arg (Printf.sprintf "Acl: unknown object %s" obj)

let held t principal =
  match Ident.Tbl.find_opt t.by_principal principal with
  | Some entries -> entries
  | None ->
      let entries = Hashtbl.create 16 in
      Ident.Tbl.replace t.by_principal principal entries;
      entries

let grant t ~principal ~obj ~operation =
  let acl = find t obj in
  if not (Hashtbl.mem acl (principal, operation)) then begin
    Hashtbl.replace acl (principal, operation) ();
    Hashtbl.replace (held t principal) (obj, operation) ();
    t.ops <- t.ops + 1
  end

let revoke t ~principal ~obj ~operation =
  let acl = find t obj in
  if Hashtbl.mem acl (principal, operation) then begin
    Hashtbl.remove acl (principal, operation);
    Hashtbl.remove (held t principal) (obj, operation);
    t.ops <- t.ops + 1
  end

let check t ~principal ~obj ~operation =
  match Hashtbl.find_opt t.objects obj with
  | Some acl -> Hashtbl.mem acl (principal, operation)
  | None -> false

let offboard t principal =
  match Ident.Tbl.find_opt t.by_principal principal with
  | None -> 0
  | Some entries ->
      Hashtbl.iter (fun (obj, operation) () -> Hashtbl.remove (find t obj) (principal, operation)) entries;
      Ident.Tbl.remove t.by_principal principal;
      let touched = Hashtbl.length entries in
      t.ops <- t.ops + touched;
      touched

let admin_ops t = t.ops
let entry_count t = Hashtbl.fold (fun _ acl acc -> acc + Hashtbl.length acl) t.objects 0
