type t = { domains : int; check_races : bool; cache_model : Cost.cache_model }

let default = { domains = 1; check_races = false; cache_model = Cost.Flat }

let domains_of_string s =
  match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None
