(* Interned strings for the hot identifiers of the IR: op names and the
   attribute keys and symbols the passes look up. An atom is a small
   dense integer with O(1) equality; [to_string] returns the one
   canonical string per atom, so even plain string comparison of two
   canonical names hits the physical-equality fast path.

   Interning must be safe from compile-service worker domains. The
   forward table is guarded by a mutex, and each domain keeps its own
   cache of the atoms it has interned in front of it, so a repeat intern
   takes no lock. The reverse table has room to spare and doubles when
   full. A new atom's slot is written before [count], which makes it
   visible, is published; a grown table is published before [count]
   too. So [to_string] reads [count] and then the table without the
   lock, and finds every slot below [count] written. *)

type t = int

module Strings = Hashtbl.Make (String)

let table : int Strings.t = Strings.create 256
let names : string array Atomic.t = Atomic.make (Array.make 256 "")
let count = Atomic.make 0
let mutex = Mutex.create ()

(* Each domain's atoms, keyed by their canonical strings. *)
let cache : int Strings.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Strings.create 256)

(* Under [mutex]. *)
let intern_locked s =
  match Strings.find table s with
  | id -> id
  | exception Not_found ->
    let id = Atomic.get count in
    let arr = Atomic.get names in
    let arr =
      if id < Array.length arr then arr
      else begin
        let grown = Array.make (2 * Array.length arr) "" in
        Array.blit arr 0 grown 0 id;
        Atomic.set names grown;
        grown
      end
    in
    arr.(id) <- s;
    Strings.add table s id;
    Atomic.set count (id + 1);
    id

let to_string id =
  if id < 0 || id >= Atomic.get count then
    invalid_arg (Printf.sprintf "Atom.to_string: unknown atom %d" id)
  else (Atomic.get names).(id)

let intern s =
  let local = Domain.DLS.get cache in
  match Strings.find local s with
  | id -> id
  | exception Not_found ->
    let id = Mutex.protect mutex (fun () -> intern_locked s) in
    Strings.add local (to_string id) id;
    id
