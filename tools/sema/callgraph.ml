(* The resolved call graph shared by the cross-module passes: one node per
   top-level function, and each (file, path) pair resolved once. *)

type node = {
  id : int;
  key : string;
  unit_key : string;
  facts : Facts.t;
  fn : Facts.fn;
}

type t = {
  env : Resolve.env;
  nodes : node array;
  bindings : (node * Facts.fn) list;
  by_key : (string, node) Hashtbl.t;
  memo : (string * string list, string option) Hashtbl.t;
}

let key unit_key name = unit_key ^ ":" ^ name
let unit_of_key k = String.sub k 0 (String.index k ':')

let build ~dunes facts_list =
  let env =
    Resolve.build ~dunes
      ~files:(List.map (fun (f : Facts.t) -> f.Facts.rel) facts_list)
  in
  let all =
    List.concat_map
      (fun (f : Facts.t) ->
        if f.Facts.is_mli || f.Facts.parse_failed then []
        else
          let unit_key = Facts.unit_key_of_rel f.Facts.rel in
          List.map
            (fun (fn : Facts.fn) ->
              (key unit_key fn.Facts.fn_name, unit_key, f, fn))
            f.Facts.fns)
      facts_list
  in
  (* The last binding of a key wins. *)
  let last = Hashtbl.create ~random:false 1024 in
  List.iteri (fun i (k, _, _, _) -> Hashtbl.replace last k i) all;
  let nodes =
    List.filteri (fun i (k, _, _, _) -> Hashtbl.find last k = i) all
    |> List.mapi (fun id (key, unit_key, facts, fn) ->
           { id; key; unit_key; facts; fn })
    |> Array.of_list
  in
  let by_key = Hashtbl.create ~random:false 1024 in
  Array.iter (fun n -> Hashtbl.replace by_key n.key n) nodes;
  let bindings =
    List.map (fun (k, _, _, fn) -> (Hashtbl.find by_key k, fn)) all
  in
  { env; nodes; bindings; by_key; memo = Hashtbl.create ~random:false 4096 }

let label n =
  String.capitalize_ascii (Filename.basename n.unit_key)
  ^ "." ^ n.fn.Facts.fn_name

let nodes g = g.nodes
let bindings g = g.bindings

let key_of g (facts : Facts.t) path =
  let memo_key = (facts.Facts.rel, path) in
  match Hashtbl.find_opt g.memo memo_key with
  | Some k -> k
  | None ->
      let k =
        match path with
        | [] -> None
        | [ name ] -> Some (key (Facts.unit_key_of_rel facts.Facts.rel) name)
        | _ ->
            Option.map
              (fun (unit_key, member) -> key unit_key member)
              (Resolve.resolve g.env facts path)
      in
      Hashtbl.add g.memo memo_key k;
      k

let node g k = Hashtbl.find_opt g.by_key k
let find g facts path = Option.bind (key_of g facts path) (node g)
