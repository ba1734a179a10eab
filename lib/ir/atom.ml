(* Interned strings for the hot identifiers of the IR: op names, attribute
   keys, printed type/attribute forms. An atom is a small dense integer
   with O(1) equality; [to_string] returns the one canonical string per
   atom, so even plain string comparison of two canonical names hits the
   physical-equality fast path.

   Interning must be safe from compile-service worker domains: the
   forward table is mutex-protected, and the reverse table is published
   as an immutable array through an [Atomic.t] so [to_string] never takes
   the lock. *)

type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 256
let names : string array Atomic.t = Atomic.make [||]
let mutex = Mutex.create ()

let intern s =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt table s with
      | Some id -> id
      | None ->
        let arr = Atomic.get names in
        let id = Array.length arr in
        (* Copy-on-grow: readers of the previous snapshot stay valid. *)
        let arr' = Array.make (id + 1) s in
        Array.blit arr 0 arr' 0 id;
        Hashtbl.replace table s id;
        Atomic.set names arr';
        id)

let to_string id =
  let arr = Atomic.get names in
  if id < 0 || id >= Array.length arr then
    invalid_arg (Printf.sprintf "Atom.to_string: unknown atom %d" id)
  else arr.(id)

let compare (a : t) (b : t) = Int.compare a b
