type t = (string, float ref) Hashtbl.t

let create () : t = Hashtbl.create ~random:false 16

let add t name by =
  if not (Float.is_finite by) then invalid_arg "Counter.add: non-finite delta";
  match Hashtbl.find_opt t name with
  | Some cell -> cell := !cell +. by
  | None -> Hashtbl.add t name (ref by)

let incr t name = add t name 1.0

let value t name =
  match Hashtbl.find_opt t name with Some cell -> !cell | None -> 0.0

let to_alist t =
  Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let of_alist pairs =
  let t = create () in
  List.iter (fun (name, v) -> add t name v) pairs;
  t

let merge a b =
  let t = create () in
  let pour src =
    Hashtbl.iter (fun name cell -> add t name !cell) src
  in
  pour a;
  pour b;
  t

let reset t = Hashtbl.reset t
