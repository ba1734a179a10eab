(* SYCL dialect types (Section III/IV of the paper): the classes id, item,
   nd_item, range, nd_range and group are modeled as IR types, as are
   accessors (device side) and buffers/queues/handlers (host side). *)

open Mlir

type access_mode =
  | Read
  | Write
  | Read_write

let access_mode_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Read_write -> "read_write"

let access_mode_of_string = function
  | "read" -> Some Read
  | "write" -> Some Write
  | "read_write" -> Some Read_write
  | _ -> None

type accessor_info = {
  acc_dims : int;
  acc_element : Types.t;
  acc_mode : access_mode;
}

type buffer_info = {
  buf_dims : int;
  buf_element : Types.t;
}

type Types.t +=
  | Id of int            (** !sycl.id<n> *)
  | Item of int          (** !sycl.item<n> *)
  | Nd_item of int       (** !sycl.nd_item<n> *)
  | Range of int         (** !sycl.range<n> *)
  | Nd_range of int      (** !sycl.nd_range<n> *)
  | Group of int         (** !sycl.group<n> *)
  | Accessor of accessor_info  (** !sycl.accessor<n, elem, mode> *)
  | Local_accessor of accessor_info  (** !sycl.local_accessor<n, elem> *)
  | Buffer of buffer_info  (** !sycl.buffer<n, elem> — host side *)
  | Queue                (** !sycl.queue — host side *)
  | Handler              (** !sycl.handler — host side *)
  | Event                (** !sycl.event — host side *)

let id n = Id n
let item n = Item n
let nd_item n = Nd_item n

let accessor ?(mode = Read_write) ~dims element =
  Accessor { acc_dims = dims; acc_element = element; acc_mode = mode }

let local_accessor ~dims element =
  Local_accessor { acc_dims = dims; acc_element = element; acc_mode = Read_write }

let buffer ~dims element = Buffer { buf_dims = dims; buf_element = element }

(** Number of index cells occupied by a SYCL struct type when stored in
    memory (used by the device interpreter for alloca sizing). *)
let flat_cells = function
  | Id n | Range n -> n
  | Item n -> 3 * n (* id, range, offset *)
  | Nd_item n -> 6 * n
  | Nd_range n -> 2 * n
  | Group n -> 2 * n
  | _ -> 1

let dims_of = function
  | Id n | Item n | Nd_item n | Range n | Nd_range n | Group n -> Some n
  | Accessor { acc_dims; _ } | Local_accessor { acc_dims; _ } -> Some acc_dims
  | Buffer { buf_dims; _ } -> Some buf_dims
  | _ -> None

let is_accessor = function Accessor _ | Local_accessor _ -> true | _ -> false

let accessor_info = function
  | Accessor info | Local_accessor info -> Some info
  | _ -> None

let is_item_like = function Item _ | Nd_item _ -> true | _ -> false

(* How every parameterized SYCL type starts: "!sycl.", its kind, '<'
   and its rank. *)
let write_head buf kind n =
  Buffer.add_string buf "!sycl.";
  Buffer.add_string buf kind;
  Buffer.add_char buf '<';
  Text.add_int buf n

let write_element buf element =
  Buffer.add_string buf ", ";
  Types.write buf element

(* The writer registered with [Types.register_printer]: [false], writing
   nothing, for a type that is not a SYCL one. *)
let write buf ty =
  match ty with
  | Id n -> write_head buf "id" n; Buffer.add_char buf '>'; true
  | Item n -> write_head buf "item" n; Buffer.add_char buf '>'; true
  | Nd_item n -> write_head buf "nd_item" n; Buffer.add_char buf '>'; true
  | Range n -> write_head buf "range" n; Buffer.add_char buf '>'; true
  | Nd_range n -> write_head buf "nd_range" n; Buffer.add_char buf '>'; true
  | Group n -> write_head buf "group" n; Buffer.add_char buf '>'; true
  | Accessor { acc_dims; acc_element; acc_mode } ->
    write_head buf "accessor" acc_dims;
    write_element buf acc_element;
    Buffer.add_string buf ", ";
    Buffer.add_string buf (access_mode_to_string acc_mode);
    Buffer.add_char buf '>';
    true
  | Local_accessor { acc_dims; acc_element; _ } ->
    write_head buf "local_accessor" acc_dims;
    write_element buf acc_element;
    Buffer.add_char buf '>';
    true
  | Buffer { buf_dims; buf_element } ->
    write_head buf "buffer" buf_dims;
    write_element buf buf_element;
    Buffer.add_char buf '>';
    true
  | Queue -> Buffer.add_string buf "!sycl.queue"; true
  | Handler -> Buffer.add_string buf "!sycl.handler"; true
  | Event -> Buffer.add_string buf "!sycl.event"; true
  | _ -> false

let () =
  Types.register_printer write;
  (* Textual parser for !sycl.* types. Registered under the "sycl.xxx"
     identifier that follows the '!'. *)
  let parse kind (p : Parser.t) =
    let expect_angle_int () =
      Parser.expect_punct p "<";
      match Parser.accept_int p with
      | Some n -> n
      | None -> raise (Parser.Parse_error "expected integer in sycl type")
    in
    match kind with
    | "sycl.id" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Id n
    | "sycl.item" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Item n
    | "sycl.nd_item" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Nd_item n
    | "sycl.range" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Range n
    | "sycl.nd_range" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Nd_range n
    | "sycl.group" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ">";
      Group n
    | "sycl.accessor" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ",";
      let element = Parser.parse_type p in
      Parser.expect_punct p ",";
      let mode_s =
        match Parser.accept_ident p with
        | Some s -> s
        | None -> raise (Parser.Parse_error "expected access mode")
      in
      Parser.expect_punct p ">";
      (match access_mode_of_string mode_s with
      | Some mode -> accessor ~mode ~dims:n element
      | None -> raise (Parser.Parse_error ("bad access mode " ^ mode_s)))
    | "sycl.local_accessor" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ",";
      let element = Parser.parse_type p in
      Parser.expect_punct p ">";
      local_accessor ~dims:n element
    | "sycl.buffer" ->
      let n = expect_angle_int () in
      Parser.expect_punct p ",";
      let element = Parser.parse_type p in
      Parser.expect_punct p ">";
      buffer ~dims:n element
    | "sycl.queue" -> Queue
    | "sycl.handler" -> Handler
    | "sycl.event" -> Event
    | k -> raise (Parser.Parse_error ("unknown sycl type !" ^ k))
  in
  List.iter
    (fun kind -> Parser.register_type_parser kind (parse kind))
    [
      "sycl.id"; "sycl.item"; "sycl.nd_item"; "sycl.range"; "sycl.nd_range";
      "sycl.group"; "sycl.accessor"; "sycl.local_accessor"; "sycl.buffer";
      "sycl.queue"; "sycl.handler"; "sycl.event";
    ]
